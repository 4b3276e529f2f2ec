"""Packed canonical embedding between ring coefficients and slot values.

A polynomial P in Z[X]/(X^N + 1) carries n = N/2 complex slots
z_j = P(zeta^{5^j}) where zeta = exp(i*pi/N) is a primitive 4n-th root of
unity.  Since zeta^(n*5^j) = i for every j, the slot vector factors through
the packed coefficients c_t + i*c_{t+n}:

    z_j = sum_t (c_t + i*c_{t+n}) * zeta^(t * 5^j  mod 4n)

so the full embedding is one n-point transform V[j, t] = zeta^(t*5^j) on
the packed vector.  V factors into log2(n) radix-2 butterfly stages over a
bit-reversed input ordering; both directions below run those stages in
O(n log n) and accept stacked rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ntt import bit_reverse_permutation


@lru_cache(maxsize=None)
def rotation_powers(n: int) -> np.ndarray:
    """5^j mod 4n for j in [0, n): the slot orbit of the evaluation points."""
    out = np.empty(n, dtype=np.int64)
    x = 1
    for j in range(n):
        out[j] = x
        x = (x * 5) % (4 * n)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def root_powers(n: int) -> np.ndarray:
    """zeta^e for e in [0, 4n), zeta = exp(2*pi*i / 4n)."""
    e = np.arange(4 * n)
    out = np.exp(2j * np.pi * e / (4 * n))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def stage_twiddles(n: int, length: int) -> np.ndarray:
    """Butterfly twiddles for the stage of block size `length`.

    Entry j is zeta^((4n / (4*length)) * (5^j mod 4*length)); blocks repeat
    the same half-block twiddle vector because 5^(length/2) = 2*length + 1
    (mod 4*length).
    """
    rg = rotation_powers(n)
    half = length // 2
    idx = (rg[:half] % (4 * length)) * ((4 * n) // (4 * length))
    out = root_powers(n)[idx]
    out.setflags(write=False)
    return out


def packed_to_slots(packed: np.ndarray) -> np.ndarray:
    """Apply V along the last axis: packed coefficients -> slot values."""
    x = np.asarray(packed, dtype=np.complex128)
    n = x.shape[-1]
    x = x[..., bit_reverse_permutation(n)]
    length = 2
    while length <= n:
        half = length // 2
        w = stage_twiddles(n, length)
        b = x.reshape(x.shape[:-1] + (-1, length))
        u = b[..., :half]
        v = b[..., half:] * w
        x = np.concatenate([u + v, u - v], axis=-1).reshape(x.shape)
        length *= 2
    return x


def slots_to_packed(slots: np.ndarray) -> np.ndarray:
    """Apply V^{-1} along the last axis: slot values -> packed coefficients."""
    x = np.asarray(slots, dtype=np.complex128).copy()
    n = x.shape[-1]
    length = n
    while length >= 2:
        half = length // 2
        w = stage_twiddles(n, length)
        b = x.reshape(x.shape[:-1] + (-1, length))
        u = b[..., :half]
        v = b[..., half:]
        x = np.concatenate([u + v, (u - v) / w], axis=-1).reshape(x.shape)
        length //= 2
    return x[..., bit_reverse_permutation(n)] / n
