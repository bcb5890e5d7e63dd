"""Pinned, platform-independent random streams.

Every stochastic choice in the project (class-order shuffling, synthetic
data, weight init, Bernoulli masks) is drawn from a Philox4x64 counter-based
generator keyed by an explicit tuple of integers.  Philox is fully specified
by its key, so identical tuples give bit-identical streams on every platform
and numpy version.
"""
from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1

# stream purpose tags, kept distinct so streams never collide
TAG_SPLIT = 1
TAG_DATA = 2
TAG_BACKBONE = 3
TAG_ADAPTER = 4
TAG_SHUFFLE = 5
TAG_MASK = 6
TAG_ALIGN = 7


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix_key(*parts: int) -> np.ndarray:
    """Hash an integer tuple into a 128-bit Philox key (two uint64 words)."""
    h = 0
    for p in parts:
        h = _splitmix64(h ^ (int(p) & _M64))
    lo = _splitmix64(h)
    hi = _splitmix64(lo)
    return np.array([lo, hi], dtype=np.uint64)


def stream_rng(*parts: int) -> np.random.Generator:
    """Generator for the stream identified by ``parts``."""
    return np.random.Generator(np.random.Philox(key=mix_key(*parts)))


_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_PHILOX_M = (_U(0xD2E7470EE14C6C93), _U(0xCA5A826395121157))
_PHILOX_W = (_U(0x9E3779B97F4A7C15), _U(0xBB67AE8584CAA73B))


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    z = z + _U(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product, from 32-bit halves."""
    a_lo, a_hi = a & _M32, a >> _U(32)
    b_lo, b_hi = b & _M32, b >> _U(32)
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> _U(32))
    v = a_lo * b_hi + (u & _M32)
    return a_hi * b_hi + (u >> _U(32)) + (v >> _U(32)), a * b


def stream_uniforms(keys, n: int) -> np.ndarray:
    """Row ``j`` equals ``stream_rng(*keys[j]).random(n)``, bit for bit.

    ``keys`` is an ``(m, parts)`` integer matrix; the result is ``(m, n)``.
    Philox is counter-based, so every stream is computed at once: NumPy
    increments the counter before its first block, so block ``b`` is
    Philox4x64-10 of counter ``b + 1`` under the row's key, and each 64-bit
    word ``w`` becomes the double ``(w >> 11) · 2⁻⁵³``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    h = np.zeros(len(keys), dtype=np.uint64)
    for p in keys.T:
        h = _splitmix64_array(h ^ p)
    k0 = _splitmix64_array(h)[:, None]
    k1 = _splitmix64_array(k0)
    n_blocks = -(-n // 4)
    zero = np.zeros((len(keys), n_blocks), dtype=np.uint64)
    c0 = zero + np.arange(1, n_blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = zero
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), 4 * n_blocks)
    return (words[:, :n] >> _U(11)) * (1.0 / 9007199254740992.0)
