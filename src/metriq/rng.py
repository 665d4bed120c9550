"""Counter-based deterministic random numbers.

Every draw is a pure function of (seed, stream_id, slot), where a slot is the
index of one 64-bit word. Consumers address slots explicitly, so a sequence of
draws is bit-identical no matter how it is chunked across calls or threads.
The word function is the splitmix64 finalizer applied to a Weyl sequence:

    word(i) = mix64(base + i * GOLDEN),   base = mix64(mix64(seed + S0) ^ mix64(stream + S1))

Uniforms take the top 53 bits, so they lie in [0, 1) on an exact double grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_SALT_SEED = 0xD1B54A32D192ED03
_SALT_STREAM = 0x8BB84B93962EACC9

_INV_2_53 = float(2.0 ** -53)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, elementwise."""
    # uint64 arithmetic wraps modulo 2**64, which is exactly what we need
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _mix64_int(x: int) -> int:
    """The finalizer on a Python integer, wrapping at 64 bits."""
    # a one-element array, not a numpy scalar: scalar arithmetic warns on overflow
    return int(_mix64_array(np.array([x & _MASK], dtype=np.uint64))[0])


def _require_slots(count: int, start: int) -> None:
    if count < 0 or start < 0:
        raise ValueError(f"count and start must be nonnegative, got count={count}, start={start}")


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
        _require_slots(count, start)
        base = np.uint64(self._base())
        idx = np.arange(start, start + count, dtype=np.uint64)
        return _mix64_array(base + idx * np.uint64(_GOLDEN))

    def uniforms(self, count: int, start: int = 0) -> np.ndarray:
        """Doubles in [0, 1), one per slot."""
        w = self.words(count, start)
        return (w >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normals(self, count: int, start: int = 0) -> np.ndarray:
        """Standard normals via Box-Muller.

        Consumes 2*ceil(count/2) slots beginning at `start`; even counts
        therefore consume exactly `count` slots.
        """
        _require_slots(count, start)
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
