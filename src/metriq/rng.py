"""Counter-based deterministic random numbers.

Every draw is a pure function of (seed, stream_id, slot), where a slot is the
index of one 64-bit word. Consumers address slots explicitly, so a sequence of
draws is bit-identical no matter how it is chunked across calls or threads.
The word function is the splitmix64 finalizer applied to a Weyl sequence:

    word(i) = mix64(base + i * GOLDEN),   base = mix64(mix64(seed + S0) ^ mix64(stream + S1))

Slots are the integers in [0, 2^64); a draw whose range would pass 2^64 is
refused rather than wrapped. The kernel fills a draw one block of _BLOCK
slots at a time, in place, so a block's words and its scratch stay in cache.
Each slot is a pure function of its index, so the block size never changes
a word. Uniforms take the top 53 bits, so they lie in [0, 1) on an exact
double grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_SALT_SEED = 0xD1B54A32D192ED03
_SALT_STREAM = 0x8BB84B93962EACC9

_INV_2_53 = float(2.0 ** -53)

_BLOCK = 1 << 13  # slots per kernel pass: 64 KB of words, which stay in L2
_WEYL = np.arange(_BLOCK, dtype=np.uint64) * _GOLDEN


def _mix64_array(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place; scratch has z's shape."""
    # uint64 arithmetic wraps modulo 2**64, which is exactly what we need
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _mix64_int(x: int) -> int:
    """The finalizer on a Python integer, wrapping at 64 bits."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _require_slots(count: int, start: int) -> tuple[int, int]:
    """(count, start) as exact integers naming slots inside [0, 2^64)."""
    count, start = operator.index(count), operator.index(start)
    if count < 0 or start < 0:
        raise ValueError(f"count and start must be nonnegative, got count={count}, start={start}")
    if start + count > 1 << 64:
        raise ValueError(f"slots [{start}, {start + count}) pass the last slot, 2**64 - 1")
    return count, start


# i^k for k = rint(4u) in 0..4, so k = 4 is i^0; products with these are exact
_QUARTER_RE = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_QUARTER_IM = np.array([0.0, 1.0, 0.0, -1.0, 0.0])


def _unit_phases(u: np.ndarray, re: np.ndarray, im: np.ndarray, scratch: np.ndarray) -> None:
    """cos(2 pi u) and sin(2 pi u) into re and im, for uniforms u in [0, 1).

    Each phase is i^k e^{ir} with v = 4u, k = rint(v) and r = (pi/2)(v - k)
    in [-pi/4, pi/4], where numpy's cos and sin take about a third of their
    time on the full turn. 4u, rint and v - k are exact, so r is rounded
    once, in the product. i^k is applied with products by 0 and +-1 and
    sums with one zero term, which are exact, and every zero they give is
    +0. u, re and im are contiguous arrays of one shape; u is clobbered,
    and so is scratch, a float64 array of at least 2 u.size elements.
    """
    n = u.size
    k = scratch[:n].reshape(u.shape)
    index = scratch[n : 2 * n].view(np.int64).reshape(u.shape)
    u *= 4.0
    np.rint(u, out=k)
    u -= k
    u *= 0.5 * np.pi
    np.copyto(index, k, casting="unsafe")
    np.cos(u, out=re)
    np.sin(u, out=im)
    # (c + i s)(a + i b) = (a c - b s) + i (a s + b c), where one of a, b is 0;
    # k and r are spent, and index is spent once a and b are taken
    a, b, bs = k, u, index.view(np.float64)
    # k is in range, so clip mode only skips the bounds checks
    _QUARTER_RE.take(index, out=a, mode="clip")
    _QUARTER_IM.take(index, out=b, mode="clip")
    np.multiply(b, im, out=bs)
    b *= re
    re *= a
    re -= bs
    im *= a
    im += b


@dataclass(frozen=True, eq=True)
class RngStream:
    """Addressable stream of reproducible random words.

    Identical (seed, stream_id) give identical draws forever. Derived streams
    (see derive) are decorrelated by construction; collisions between derived
    ids would need a 64-bit birthday coincidence.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK)

    def derive(self, key: int) -> "RngStream":
        """Child stream for a subtask; key is any 64-bit integer label."""
        mixed = _mix64_int((self.stream_id + _GOLDEN) ^ _mix64_int(key + _SALT_STREAM))
        return RngStream(self.seed, mixed)

    def _base(self) -> int:
        return _mix64_int(_mix64_int(self.seed + _SALT_SEED) ^ _mix64_int(self.stream_id + _SALT_STREAM))

    def words(self, count: int, start: int = 0) -> np.ndarray:
        """Raw 64-bit words for slots [start, start + count)."""
        count, start = _require_slots(count, start)
        base = self._base()
        out = np.empty(count, dtype=np.uint64)
        scratch = np.empty(min(count, _BLOCK), dtype=np.uint64)
        for lo in range(0, count, _BLOCK):
            z = out[lo : lo + _BLOCK]
            # slot start + lo + i is base + (start + lo) * GOLDEN + _WEYL[i], mod 2^64
            np.add(_WEYL[: len(z)], (base + (start + lo) * _GOLDEN) & _MASK, out=z)
            _mix64_array(z, scratch[: len(z)])
        return out

    def uniforms(self, count: int, start: int = 0) -> np.ndarray:
        """Doubles in [0, 1), one per slot."""
        w = self.words(count, start)
        w >>= 11
        # below 2^53, so the signed view converts exactly and faster than uint64
        return w.view(np.int64) * _INV_2_53

    def normals(self, count: int, start: int = 0) -> np.ndarray:
        """Standard normals via Box-Muller.

        Consumes 2*ceil(count/2) slots beginning at `start`; even counts
        therefore consume exactly `count` slots. Slot 2i gives pair i's
        radius and slot 2i + 1 its angle, and the pair is (r cos, r sin).
        """
        count, start = _require_slots(count, start)
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs, start)
        # in place on the uniforms; 1 - u keeps the log argument in (0, 1]
        radius, angle = u[0::2], u[1::2]
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        z = np.empty(2 * pairs, dtype=np.float64)
        np.cos(angle, out=z[0::2])
        np.sin(angle, out=z[1::2])
        z[0::2] *= radius
        z[1::2] *= radius
        return z[:count]

    def haar_states(self, count: int, dim: int, start: int = 0) -> np.ndarray:
        """(count, dim) array of Haar-random pure state vectors.

        Consumes 2*dim*count slots beginning at `start`. Each state is a
        complex Gaussian vector divided by its norm (Mezzadri, Notices AMS
        54, 592 (2007)), in place. The squared norms come from the complex
        product conj(x) x, as in np.linalg.norm: numpy's SIMD loops may
        round its real part differently from re*re + im*im.
        """
        psi = self.normals(2 * dim * count, start).view(complex).reshape(count, dim)
        sq = psi.conj()
        sq *= psi
        sq = sq.real
        if dim < 8:
            # numpy's pairwise sum adds fewer than 8 terms in order; column by
            # column gives the same sums without a call per row, about 10x
            # faster at dim = 3. From 8 terms on only the reduce has its bytes
            norms = sq[:, 0].copy()
            for j in range(1, dim):
                norms += sq[:, j]
        else:
            norms = np.add.reduce(sq, axis=1)
        np.sqrt(norms, out=norms)
        if dim == 1:
            # the stream's one zero word, as a radius slot, gives a zero
            # vector, and only a one-entry state has no other pair to save it
            zero = norms == 0.0
            psi[zero] = 1.0
            norms[zero] = 1.0
        # a complex division, not a multiply by 1/norm: their signed zeros differ
        psi /= norms[:, None]
        return psi

    def haar_rays(self, count: int, dim: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Haar-random rays |psi><psi| on C^dim, as (re, im) planes of psi.

        Each plane is a C-contiguous (dim, count) array, and column i is ray
        i's unit vector, with entry 0 real and >= 0 (the global phase a ray
        does not have). Ray i reads the 2*dim - 1 slots that begin at
        start + (2*dim - 1)*i, so a draw split anywhere gives the same rays.
        The weights |psi_k|^2 of a Haar ray are uniform on the simplex and
        its relative phases are independent and uniform (Zyczkowski and
        Sommers, J. Phys. A 34, 7111 (2001)); normalized exponentials
        E_k = -log1p(-u_k) give such weights (Devroye, Non-Uniform Random
        Variate Generation (1986), ch. V). So the first dim slots give
        w_k = E_k / sum(E), summed in k order, and the next dim - 1 give the
        phases 2 pi u of entries 1..dim-1 (see _unit_phases).
        """
        width = 2 * dim - 1
        slots, start = _require_slots(width * operator.index(count), start)
        count = slots // width
        re, im = np.empty((2, dim, count))
        if dim == 1:
            # E / E is 1, except at the stream's one zero word, where it is 0 / 0
            re.fill(1.0)
            im.fill(0.0)
            return re, im
        # one transposing copy, so every ufunc below runs on contiguous rows,
        # and the uniforms' own buffer is then the phases' scratch. A copy even
        # at count = 1, where the transpose is contiguous and would be a view
        flat = self.uniforms(slots, start)
        u = flat.reshape(count, width).T.copy()
        amp = u[:dim]
        np.negative(amp, out=amp)
        # log1p(-u) is -E; a ratio of two negated doubles is their ratio, bit for bit
        np.log1p(amp, out=amp)
        total = amp[0].copy()
        for k in range(1, dim):
            total += amp[k]
        amp /= total
        np.sqrt(amp, out=amp)
        re[0] = amp[0]
        im[0] = 0.0
        _unit_phases(u[dim:], re[1:], im[1:], flat)
        re[1:] *= amp[1:]
        im[1:] *= amp[1:]
        return re, im

    def haar_unitary(self, dim: int, start: int = 0) -> np.ndarray:
        """One Haar-random dim x dim unitary; consumes 2*dim*dim slots.

        Gram-Schmidt on a Ginibre matrix with positive real column pivots,
        which is the phase convention that makes QR sampling Haar.
        """
        g = self.normals(2 * dim * dim, start).view(complex).reshape(dim, dim)
        q = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            v = g[:, j].copy()
            for k in range(j):
                v -= np.vdot(q[:, k], g[:, j]) * q[:, k]
            q[:, j] = v / np.linalg.norm(v)
        return q
