"""Independent reference implementations the tests check the library against.

Everything here is deliberately slow and simple: Python big integers,
O(N^2) loops, and textbook formulas, sharing no code with the package
under test.
"""

from __future__ import annotations

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def oracle_is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers 64-bit inputs)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def oracle_negacyclic(a, b, q: int) -> list[int]:
    """(a * b) mod (X^N + 1, q) coefficient by coefficient."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            t = ai * int(b[j])
            if i + j < n:
                out[i + j] = (out[i + j] + t) % q
            else:
                out[i + j - n] = (out[i + j - n] - t) % q
    return out


def oracle_crt(residue_rows, primes, centered: bool = True) -> list[int]:
    """Chinese-remainder lift of per-prime residue rows to big integers."""
    big = 1
    for q in primes:
        big *= q
    terms = []
    for row, q in zip(residue_rows, primes):
        q_hat = big // q
        y = pow(q_hat % q, -1, q)
        terms.append((row, q_hat * y))
    n = len(residue_rows[0])
    out = []
    for c in range(n):
        v = sum(int(row[c]) * t for row, t in terms) % big
        if centered and v > big // 2:
            v -= big
        out.append(v)
    return out


def oracle_residues(coeffs, primes) -> np.ndarray:
    """Integer coefficients of any size reduced into each prime: one uint64
    row per prime."""
    return np.array([[int(c) % q for c in coeffs] for q in primes],
                    dtype=np.uint64)


def oracle_automorphism(residue_rows, r: int, primes) -> np.ndarray:
    """psi_r: X -> X^(5^r mod 2N) on coefficient rows, one per prime: the
    coefficient of X^i moves to X^(e mod N), e = i * 5^r mod 2N, negated
    when e >= N (X^N = -1)."""
    n = len(residue_rows[0])
    exp = pow(5, r, 2 * n)
    out = np.zeros((len(primes), n), dtype=np.uint64)
    for row, q, dst in zip(residue_rows, primes, out):
        for i in range(n):
            e = i * exp % (2 * n)
            dst[e % n] = int(row[i]) if e < n else -int(row[i]) % q
    return out


def oracle_negacyclic_big(a: list[int], b: list[int]) -> list[int]:
    """Exact integer negacyclic product, no modulus."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(n):
            t = a[i] * b[j]
            if i + j < n:
                out[i + j] += t
            else:
                out[i + j - n] -= t
    return out


def oracle_slot_transform(n: int) -> np.ndarray:
    """The n-slot packed embedding matrix V[j, t] = zeta^(t * 5^j mod 4n)."""
    powers = np.empty(n, dtype=np.int64)
    x = 1
    for j in range(n):
        powers[j] = x
        x = (x * 5) % (4 * n)
    e = np.outer(powers, np.arange(n)) % (4 * n)
    return np.exp(2j * np.pi * e / (4 * n))


def centered_mod(v: int, q: int) -> int:
    r = v % q
    return r - q if r > q // 2 else r
