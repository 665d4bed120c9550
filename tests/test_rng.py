import hashlib

import numpy as np
import pytest

from metriq.rng import _BLOCK, _GOLDEN, _MASK, RngStream, _mix64_int
from metriq.tomography import _ORACLE_CHUNK


def test_chunking_does_not_change_draws():
    s = RngStream(123, 4)
    whole = s.uniforms(1000)
    parts = np.concatenate([s.uniforms(1), s.uniforms(499, start=1), s.uniforms(500, start=500)])
    assert np.array_equal(whole, parts)
    # across the kernel's blocks: cuts inside the first, one slot either side of edges, past the last
    n = 3 * _BLOCK + 5
    cuts = [0, 3, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 2, n]
    for draw in (s.words, s.uniforms):
        whole = draw(n)
        parts = [draw(hi - lo, start=lo) for lo, hi in zip(cuts, cuts[1:])]
        assert np.array_equal(whole, np.concatenate(parts))
        # a draw that starts mid-block reads the same slots as the aligned one
        assert np.array_equal(draw(2 * _BLOCK, start=_BLOCK - 7), whole[_BLOCK - 7 : 3 * _BLOCK - 7])


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


def _normals_reference(rng, count, start=0):
    """Box-Muller as an expression of temporaries, as normals once computed it."""
    pairs = (count + 1) // 2
    u = rng.uniforms(2 * pairs, start)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def _haar_states_reference(rng, count, dim, start=0):
    psi = _normals_reference(rng, 2 * dim * count, start).view(complex).reshape(count, dim)
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def test_in_place_draws_match_the_expression_form():
    # normals and haar_states work in place; every byte is the expression's
    rng = RngStream(0xB07E57A7E5, 4)
    chunk = _ORACLE_CHUNK
    for count in (1, 7, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        # an odd count reads one slot past it; the last start ends on slot 2^64 - 1
        for start in (0, 13, 2**64 - count - count % 2):
            got, ref = rng.normals(count, start), _normals_reference(rng, count, start)
            assert got.tobytes() == ref.tobytes(), (count, start)
        for dim in (1, 2, 3, 4):
            for start in (0, 13, 2**64 - 2 * dim * count):
                got, ref = rng.haar_states(count, dim, start), _haar_states_reference(rng, count, dim, start)
                assert got.shape == (count, dim)
                assert got.tobytes() == ref.tobytes(), (count, dim, start)
    # rows of 8 or more are summed by np.add.reduce, as np.linalg.norm sums them
    for dim in (7, 8, 9, 16):
        got, ref = rng.haar_states(chunk + 1, dim, 13), _haar_states_reference(rng, chunk + 1, dim, 13)
        assert got.tobytes() == ref.tobytes(), dim


def test_negative_counts_and_starts_are_refused():
    s = RngStream(7)
    draws = (s.words, s.uniforms, s.normals, lambda count, start=0: s.haar_states(count, 3, start))
    for draw in draws:
        with pytest.raises(ValueError, match="nonnegative"):
            draw(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            draw(5, start=-1)
        assert len(draw(0)) == 0
        # counts and starts are exact integers, not floats rounded up or down
        for count, start in ((2.5, 0), (2.0, 0), (2, 0.5), (2, 1.0)):
            with pytest.raises(TypeError):
                draw(count, start=start)
        # the slots are [0, 2^64): a range past the last slot is refused, not wrapped
        for count, start in ((2, 2**64 - 1), (1, 2**64), (2**64 + 1, 0), (10, 2**65)):
            with pytest.raises(ValueError, match="2\\*\\*64"):
                draw(count, start=start)
        assert len(draw(0, start=2**64)) == 0
        assert len(draw(np.int64(3), start=np.uint64(2))) == 3


def test_last_slot_is_drawn():
    s = RngStream(7, 9)
    last = s.words(1, start=2**64 - 1)
    assert last.dtype == np.uint64 and last.tolist() == [_mix64_int(s._base() + (2**64 - 1) * _GOLDEN)]
    assert s.words(3, start=2**64 - 3)[-1] == last[0]
    assert 0.0 <= s.uniforms(1, start=2**64 - 1)[0] < 1.0


def test_seed_masking():
    # seeds wrap at 64 bits instead of growing as Python bigints
    a = RngStream(2**64 + 3).uniforms(4)
    b = RngStream(3).uniforms(4)
    assert np.array_equal(a, b)


def test_integer_finalizer_matches_the_python_int_form():
    from metriq.rng import _MIX_A, _MIX_B, _SALT_SEED, _SALT_STREAM

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


def sampled_bytes_digest():
    """SHA-256 over the sampler's totals and every draw kind at odd starts."""
    from metriq.montecarlo import _draw

    digest = hashlib.sha256()
    # 8192 slots is rng's kernel block; a literal keeps the pin's slots fixed
    block = 1 << 13
    for q in ([0.3], [1.0], [0.2, 0.5], [0.1, 0.0, 0.6, 0.2]):
        for n in (1, 7, block - 1, block, block + 1, 10**5, 2 * 10**6):
            copies, ratio, counts = _draw(RngStream(seed=n, stream_id=len(q)), q, n, 1.5)
            digest.update(np.array([copies, *counts], dtype="<i8").tobytes())
            digest.update(np.array([ratio], dtype="<f8").tobytes())
    s = RngStream(0x5EED, 3)
    chain = s.derive(0).derive(2**64 - 1).derive(12345)
    draws = [
        s.words(3 * block + 5, start=block - 3),
        s.words(1, start=2**64 - 1),
        s.uniforms(3 * block + 5, start=2 * block + 1),
        s.normals(1001, start=block - 1),
        s.haar_states(777, 3, start=5),
        s.haar_states(333, 2, start=block + 11),
        s.haar_unitary(3, start=13),
        s.haar_unitary(2, start=2**40 + 1),
        chain.words(17, start=3),
        np.array([chain.seed, chain.stream_id], dtype=np.uint64),
    ]
    for a in draws:
        digest.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


def test_sampled_bytes_are_pinned():
    assert sampled_bytes_digest() == "b18362e0a9b56d33314ea1d77cd97748249b48be30d0954e7c69afe7f27e640f"
