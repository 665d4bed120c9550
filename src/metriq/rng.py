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
        therefore consume exactly `count` slots.
        """
        count, start = _require_slots(count, start)
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs, start)
        # 1 - u keeps the log argument in (0, 1]
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:count]

    def haar_states(self, count: int, dim: int, start: int = 0) -> np.ndarray:
        """(count, dim) array of Haar-random pure state vectors.

        Consumes 2*dim*count slots beginning at `start`.
        """
        psi = self.normals(2 * dim * count, start).view(complex).reshape(count, dim)
        norms = np.linalg.norm(psi, axis=1, keepdims=True)
        return psi / norms

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
