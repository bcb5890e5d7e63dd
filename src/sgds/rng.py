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
# the round multipliers of words 0 and 2, as a (2, 1, 1) column and its
# 32-bit halves, and the two Weyl increments of the key schedule
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _M32, _PHILOX_M >> _U(32)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)[:, None, None]


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    z = z + _U(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def _mulhi_into(b: np.ndarray, lo: np.ndarray, mid: np.ndarray,
                hi: np.ndarray) -> None:
    """``hi`` = high word of ``_PHILOX_M · b`` from 32-bit halves; ``lo`` and
    ``mid`` are scratch of ``b``'s shape."""
    np.bitwise_and(b, _M32, out=lo)
    np.right_shift(b, _U(32), out=hi)
    np.multiply(lo, _PHILOX_M_LO, out=mid)
    mid >>= _U(32)
    lo *= _PHILOX_M_HI
    lo += mid                                # u = a_hi·b_lo + (a_lo·b_lo >> 32)
    np.bitwise_and(lo, _M32, out=mid)
    lo >>= _U(32)
    mid += np.multiply(hi, _PHILOX_M_LO)     # v = a_lo·b_hi + (u & M32)
    mid >>= _U(32)
    hi *= _PHILOX_M_HI
    hi += lo
    hi += mid                                # a_hi·b_hi + (u >> 32) + (v >> 32)


def stream_uniforms(keys, n: int) -> np.ndarray:
    """Row ``j`` equals ``stream_rng(*keys[j]).random(n)``, bit for bit.

    ``keys`` is an ``(m, parts)`` integer matrix; the result is ``(m, n)``.
    Philox is counter-based, so every stream is computed at once: NumPy
    increments the counter before its first block, so block ``b`` is
    Philox4x64-10 of counter ``b + 1`` under the row's key, and each 64-bit
    word ``w`` becomes the double ``(w >> 11) · 2⁻⁵³``.  The ten rounds run
    in place on ``(2, m, blocks)`` buffers: words 0 and 2, which the round
    multiplies, and words 1 and 3.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    m = len(keys)
    h = np.zeros(m, dtype=np.uint64)
    for p in keys.T:
        h = _splitmix64_array(h ^ p)
    key = np.empty((2, m, 1), dtype=np.uint64)
    key[0, :, 0] = _splitmix64_array(h)
    key[1, :, 0] = _splitmix64_array(key[0, :, 0])
    n_blocks = -(-n // 4)
    even = np.zeros((2, m, n_blocks), dtype=np.uint64)  # words 0 and 2
    even[0] = np.arange(1, n_blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)                           # words 1 and 3
    lo, mid, hi = (np.empty_like(even) for _ in range(3))
    for r in range(10):
        if r:
            key += _PHILOX_W
        _mulhi_into(even, lo, mid, hi)
        even *= _PHILOX_M
        # words 0, 2 <- hi(2) ^ word 1 ^ k0, hi(0) ^ word 3 ^ k1;
        # words 1, 3 <- lo(2), lo(0)
        odd ^= key
        np.bitwise_xor(hi[::-1], odd, out=odd)
        even, odd = odd, even[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)
    words = words.reshape(m, 4 * n_blocks)[:, :n] >> _U(11)
    return words * (1.0 / 9007199254740992.0)
