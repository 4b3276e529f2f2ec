"""Negacyclic number-theoretic transforms, flat and four-step.

Conventions, fixed across the package:

* `ntt` maps coefficients a_0..a_{n-1} of P(X) in Z_q[X]/(X^n + 1) to the
  evaluation vector out[j] = P(psi^(2j+1)) in natural j order, where psi is
  a primitive 2n-th root of unity mod q.  The odd-exponent indexing makes
  the evaluation-domain automorphism a closed-form index permutation.
* The "inverse" direction is the exact inverse; the 1/n factor is folded
  into the final stage's twiddles so the roundtrip is the identity bitwise.
* `four_step_ntt` computes the same map for square n via sqrt(n)-point
  column and row passes joined by a twisting-factor table whose rows are
  geometric progressions starting at one; only the sqrt(n) row ratios are
  stored, and the table is generated column by column at runtime.

Twiddle tables are cached per (q, n, root, cyclic) and stored alongside their
64-bit reciprocal companions.  Butterflies are Harvey's lazy form: each
costs one lazy Shoup product (result in [0, 2q)) and one conditional
subtract, words stay below 4q < 2^64 between stages, and one final
correction per transform returns canonical words.  The product's quotient
estimate is a high-word multiply, or for primes below 2^46 (so words
below 2^48) one float64 multiply.  The stages with short butterfly spans
run on a transposed copy so that numpy's inner loops stay long.

A stack of rows (..., n) runs through every stage in blocks of
`BLOCK_WORDS` words, 4 rows at n = 2^13.  A whole 127-row stack and its
stage temporaries fall out of L2 between stages, which made one call over
127 rows 2-4x slower per row than the same rows in blocks of 4-8.  Each
output row depends on its input row alone, so the blocks change no word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .modmath import (SMALL_WORD, U64, PrimeModulus, barrett_mul,
                      float_ratio, shoup_mul, shoup_mul_lazy, shoup_words)

# Words per pass through the butterfly stages: 256 KiB, so a block and its
# stage temporaries (a few times its size) fit a 2 MiB L2.  On a 2-core
# Xeon with that L2, 2^16 ran 8 rows of the 59-bit prime 1.5x slower.
BLOCK_WORDS = 1 << 15


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index array p with p[i] = bit-reversal of i over log2(n) bits."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


@dataclass(frozen=True)
class NttTables:
    """Twiddles and reciprocals for one (q, n, psi) triple.

    Entries [h, 2h) of each twiddle table serve the stage that merges
    length-h sub-transforms (h = 1, 2, ..., n/2); entry 0 is unused.  The
    inverse table's h = 1 entry folds in 1/n.  `fwd_stages` and
    `inv_stages` hold, per stage in execution order, (h, twiddles,
    companions, float ratios) as views of those tables shaped for the
    stage's butterfly halves; the ratios exist only for a narrow prime,
    whose lazy products take their quotient from float64.
    """

    mod: PrimeModulus
    n: int
    n_inv: np.uint64
    n_inv_shoup: np.uint64
    narrow: bool
    fwd_stages: tuple
    inv_stages: tuple


def _stages(n: int, w: np.ndarray, w_shoup: np.ndarray, narrow: bool,
            spans) -> tuple:
    b = _layout(n)[0]
    ratio = float_ratio(w_shoup) if narrow else None
    out = []
    for h in spans:
        cut = slice(h, 2 * h)
        views = (w[cut], w_shoup[cut], None if ratio is None else ratio[cut])
        if h < b:                # halves of the transposed layout: (K, h, n/b)
            views = tuple(None if v is None else v[:, None] for v in views)
        out.append((h, *views))
    return tuple(out)


@lru_cache(maxsize=None)
def _build_tables(mod: PrimeModulus, n: int, psi: int, cyclic: bool) -> NttTables:
    q = mod.q
    order = n if cyclic else 2 * n
    if pow(psi, order // 2, q) != q - 1:
        raise ConfigurationError(f"root {psi} lacks order {order} mod {q}")
    psi_inv = pow(psi, -1, q)
    n_inv = pow(n, -1, q)
    fwd, inv = [0], [0]
    h = 1
    while h < n:
        # Stage h merges length-h sub-transforms; the sub-root is the
        # n/(2h)-th power of psi, taken at odd exponents when negacyclic.
        step = n // (2 * h)
        exps = [(u * step if cyclic else (2 * u + 1) * step) for u in range(h)]
        fwd += [pow(psi, e, q) for e in exps]
        w_inv = [pow(psi_inv, e, q) for e in exps]
        inv += [x * n_inv % q for x in w_inv] if h == 1 else w_inv
        h <<= 1
    fwd, fwd_sh = shoup_words(fwd, [q] * n)
    inv, inv_sh = shoup_words(inv, [q] * n)
    # Butterfly words stay below 4q; below 2^48 they convert to float64
    # exactly, which the float quotient estimate needs.
    narrow = 4 * q <= SMALL_WORD
    spans = [1 << k for k in range(n.bit_length() - 1)]
    return NttTables(mod=mod, n=n, n_inv=U64(n_inv),
                     n_inv_shoup=U64((n_inv << 64) // q), narrow=narrow,
                     fwd_stages=_stages(n, fwd, fwd_sh, narrow, spans),
                     inv_stages=_stages(n, inv, inv_sh, narrow, spans[::-1]))


def get_tables(mod: PrimeModulus, n: int, psi: int | None = None,
               cyclic: bool = False) -> NttTables:
    if n < 2 or n & (n - 1):
        raise ConfigurationError(f"transform length {n} is not a power of two >= 2")
    if psi is None:
        order = n if cyclic else 2 * n
        if mod.two_n % order:
            raise ConfigurationError(
                f"modulus root order {mod.two_n} does not cover length {n}")
        psi = pow(mod.root, mod.two_n // order, mod.q)
    return _build_tables(mod, n, psi, cyclic)


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Block width b and the gathers into and out of the transposed layout.

    Stages with span h < b pair words within aligned blocks of b, so they
    run on the (b, n/b) transpose, whose rows are n/b long; word i = c*b + p
    sits at [p, c].  The forward gather lands the bit-reversed input in
    that layout; the inverse gather reads the bit-reversed output from it.
    """
    b = 1 << (n.bit_length() // 2)
    br = bit_reverse_permutation(n)
    return b, br.reshape(n // b, b).T.ravel(), (br % b) * (n // b) + br // b


def _forward(x: np.ndarray, t: NttTables) -> np.ndarray:
    """(R, n) canonical coefficient rows -> evaluation rows."""
    q = U64(t.mod.q)
    two_q = q + q
    rows, n = x.shape
    b, gather, _ = _layout(n)
    m = n // b
    x = np.take(x, gather, axis=-1).reshape(rows, b, m)
    for h, w, w_shoup, ratio in t.fwd_stages:
        if h == b:
            x = x.transpose(0, 2, 1).reshape(rows, n)
        y = x.reshape(-1, 2, h, m) if h < b else x.reshape(-1, 2, h)
        lo, hi = y[:, 0], y[:, 1]
        # Harvey's lazy butterfly: words stay in [0, 4q) between stages.
        prod = shoup_mul_lazy(hi, w, w_shoup, q, small=t.narrow,
                              ratio=ratio)                 # [0, 2q)
        np.subtract(lo, two_q, out=hi)
        np.minimum(lo, hi, out=lo)                         # [0, 2q)
        np.subtract(lo, prod, out=hi)
        hi += two_q                                        # (0, 4q)
        lo += prod                                         # [0, 4q)
    x = x.reshape(rows, n)             # with b == n, n / b = 1: no transpose
    y = x - two_q
    np.minimum(x, y, out=x)
    np.subtract(x, q, out=y)
    return np.minimum(x, y, out=x)


def _inverse(x: np.ndarray, t: NttTables) -> np.ndarray:
    """(R, n) canonical evaluation rows -> coefficient rows."""
    q = U64(t.mod.q)
    two_q = q + q
    rows, n = x.shape
    b, _, gather = _layout(n)
    m = n // b
    x = x.copy()
    for h, w, w_shoup, ratio in t.inv_stages:
        if h == b // 2:
            x = x.reshape(rows, m, b).transpose(0, 2, 1).copy()
        y = x.reshape(-1, 2, h, m) if h < b else x.reshape(-1, 2, h)
        lo, hi = y[:, 0], y[:, 1]
        # Gentleman-Sande lazy butterfly: words stay in [0, 2q).
        diff = lo + two_q
        diff -= hi                                         # (0, 4q)
        lo += hi
        np.subtract(lo, two_q, out=hi)
        np.minimum(lo, hi, out=lo)                         # [0, 2q)
        shoup_mul_lazy(diff, w, w_shoup, q, out=hi, small=t.narrow,
                       ratio=ratio)
    # 1/n lives in the last stage: the difference path's twiddles carry it
    # already, the sum path takes it here.
    shoup_mul_lazy(lo, t.n_inv, t.n_inv_shoup, q, out=lo, small=t.narrow)
    x = x.reshape(rows, n)
    np.minimum(x, x - q, out=x)
    return np.take(x, gather, axis=-1)


def _transform(values: np.ndarray, t: NttTables, direction: str,
               out: np.ndarray | None = None) -> np.ndarray:
    run = {"forward": _forward, "inverse": _inverse}.get(direction)
    if run is None:
        raise ConfigurationError(f"unknown direction {direction!r}")
    x = values.reshape(-1, t.n)
    block = max(1, BLOCK_WORDS // t.n)
    if out is None:
        if len(x) <= block:
            return run(x, t).reshape(values.shape)
        out = np.empty(values.shape, dtype=U64)
    elif (out.shape != values.shape or out.dtype != U64
          or not out.flags.c_contiguous):
        raise ConfigurationError(
            "out must be a C-contiguous uint64 array shaped like the input")
    # Each block reads its own rows before it writes them, so `out` may be
    # `values` itself.
    dest = out.reshape(-1, t.n)
    for lo in range(0, len(x), block):
        dest[lo:lo + block] = run(x[lo:lo + block], t)
    return out


def ntt(values: np.ndarray, mod: PrimeModulus, direction: str = "forward",
        psi: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Negacyclic NTT over the last axis; direction 'forward' or 'inverse'.

    Input words must be canonical, in [0, q).  The result goes to `out`
    (a C-contiguous uint64 array shaped like the input, which may be the
    input itself) or to a new array.
    """
    values = np.asarray(values, dtype=U64)
    return _transform(values, get_tables(mod, values.shape[-1], psi),
                      direction, out)


def cyclic_ntt(values: np.ndarray, mod: PrimeModulus, direction: str,
               psi: int) -> np.ndarray:
    """Cyclic (X^n - 1) companion transform used by the four-step row pass."""
    values = np.asarray(values, dtype=U64)
    t = get_tables(mod, values.shape[-1], psi, cyclic=True)
    return _transform(values, t, direction)


def _sqrt_len(n: int) -> int:
    s = 1 << ((n.bit_length() - 1) // 2)
    if s * s != n:
        raise ConfigurationError(f"four-step needs a square length, got {n}")
    return s


def _apply_twist(mat: np.ndarray, ratios: list[int],
                 mod: PrimeModulus) -> np.ndarray:
    """Multiply mat[j, c] by ratios[j]^c, one column at a time.

    The ratios are fixed multipliers, so the column recurrence runs on
    Shoup products; the entry products are data by data, so Barrett.
    """
    ratios, ratios_shoup = shoup_words(ratios, [mod.q] * len(ratios))
    col = np.ones(len(ratios), dtype=U64)
    out = np.empty_like(mat)
    for c in range(mat.shape[1]):
        out[:, c] = barrett_mul(mat[:, c], col, mod)
        col = shoup_mul(col, ratios, ratios_shoup, mod)
    return out


def four_step_ntt(values: np.ndarray, mod: PrimeModulus,
                  direction: str = "forward") -> np.ndarray:
    """Four-step evaluation of the same map as `ntt`, bit-identical output.

    Column pass: sqrt(n)-point negacyclic transforms (root psi^sqrt(n)).
    Twist: entry (j0, t0) gains psi^(±(2 j0 + 1) t0), rows expanded
    geometrically from their ratios psi^(±(2 j0 + 1)).  Row pass:
    sqrt(n)-point cyclic transforms (root psi^(2 sqrt(n))).
    """
    values = np.asarray(values, dtype=U64)
    n = values.shape[-1]
    s = _sqrt_len(n)
    psi = pow(mod.root, mod.two_n // (2 * n), mod.q)
    eta = pow(psi, s, mod.q)            # order 2s: column negacyclic root
    mu = pow(psi, 2 * s, mod.q)         # order s: row cyclic root
    base = psi if direction == "forward" else pow(psi, -1, mod.q)
    ratios = [pow(base, 2 * j + 1, mod.q) for j in range(s)]

    if direction == "forward":
        mat = values.reshape(s, s)                        # [t1, t0]
        cols = ntt(mat.T.copy(), mod, "forward", psi=eta)        # [t0, j0]
        twisted = _apply_twist(cols.T.copy(), ratios, mod)  # [j0, t0]
        rows = cyclic_ntt(twisted, mod, "forward", psi=mu)       # [j0, j1]
        return rows.T.reshape(n).copy()                   # out[j1 * s + j0]
    if direction == "inverse":
        mat = values.reshape(s, s).T.copy()               # [j0, j1]
        rows = cyclic_ntt(mat, mod, "inverse", psi=mu)    # [j0, t0]
        untwisted = _apply_twist(rows, ratios, mod)
        cols = ntt(untwisted.T.copy(), mod, "inverse", psi=eta)  # [t0, t1]
        return cols.T.reshape(n).copy()
    raise ConfigurationError(f"unknown direction {direction!r}")
