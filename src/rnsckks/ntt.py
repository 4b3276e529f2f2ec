"""Negacyclic number-theoretic transforms, flat and four-step.

Conventions, fixed across the package:

* `ntt` maps coefficients a_0..a_{n-1} of P(X) in Z_q[X]/(X^n + 1) to the
  evaluation vector out[j] = P(psi^(2j+1)) in natural j order, where psi is
  a primitive 2n-th root of unity mod q.  The odd-exponent indexing makes
  the evaluation-domain automorphism a closed-form index permutation.
* The "inverse" direction is the exact inverse; the 1/n factor is folded
  into the final stage's twiddles so the roundtrip is the identity bitwise.
* `four_step_ntt` computes the same map for square n via sqrt(n)-point
  negacyclic column and row passes joined by a twisting-factor table whose
  rows are geometric progressions starting at one; only the sqrt(n) row
  ratios are stored, and the table is generated column by column at
  runtime.

Twiddle tables are built once per process for each (q, n), whose psi
is the modulus root raised to two_n / 2n, and cached.  A build runs one
power ladder, psi^e for e in [0, 2n) in log2(2n) vectorized doublings,
and reads both directions' twiddles out of it by index gathers, psi^-e
as psi^(2n - e); the wide kernel's Shoup companions are computed in bulk
(`modmath.shoup_companions`).  No twiddle takes an exponentiation of its
own.  Each table carries one of two butterfly kernels, chosen per prime
when it is built; both end in canonical words, so the choice changes no
output word.

* Signed, for the primes its predicate admits (the 40-bit scale
  primes).  Words are int64 and may be negative.  A product is
  r = a * w - trunc(a * fl(w / q)) * q, formed in wrapping 64-bit words
  and read as int64.  Its quotient estimate is off
  by less than one, so |r| < q (1 + |a| 2^-52) with no conditional
  subtract and no offset.  A forward (Cooley-Tukey) stage adds at most
  about q to the word bound.  An inverse (Gentleman-Sande) stage doubles
  the bound of its sum path, so that path is reduced to about q at the
  stages the table marks.  One floor-based pass makes the words canonical
  at the end.  `_signed_schedule` follows the bound stage by stage in
  Python integers; it admits a prime only if every bound B keeps
  B (2^54 + 1) < 2^106.  Then each float64 estimate, whose relative error
  is at most 2^-52 + 2^-106, is off by less than one, and every word
  converts to float64 exactly.  At n = 2^13 this admits q up to about
  2^47.7, where the forward words reach about 20q.
* Wide, for the 59-bit base prime, the 60-bit auxiliary primes and any
  prime the signed predicate refuses.  Words are uint64.  A product is
  `modmath.shoup_estimate`, Shoup's partial-product estimate with no
  conditional subtract, which lands in [0, 4q) for any a < 2^64.  Harvey's
  lazy butterflies keep the forward's words below 8q and the inverse's
  below 4q, which stays below 2^64 because every prime is below 2^61
  (`modmath.PrimeModulus`): each butterfly reduces its sum word by 4q and
  takes the product as the estimate gives it, and a final correction
  makes the words canonical.  A table stores each Shoup companion
  floor(w * 2^64 / q) as its two 32-bit halves, the form the estimate
  multiplies by, as uint32 (as many bytes as the companion); the
  transposed-layout stages hold their few halves as uint64, which spares
  their products a cast.

The stages with short butterfly spans run on a transposed copy so that
numpy's inner loops stay long.

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
from .modmath import (U64, PrimeModulus, barrett_mul, shoup_companions,
                      shoup_estimate, shoup_halves, shoup_mul)

# Words per pass through the butterfly stages: 256 KiB, so a block and its
# stage temporaries (a few times its size) fit a 2 MiB L2.  On a 2-core
# Xeon with that L2, 2^16 ran 8 rows of the 59-bit prime 1.5x slower.
BLOCK_WORDS = 1 << 15

I64 = np.int64
# 2^106 times the relative error bound 2^-52 + 2^-106 of a float64
# estimate x * fl(c): one rounding in fl(c), one in the product.
_EST_ERR = (1 << 54) + 1


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index array p with p[i] = bit-reversal of i over log2(n) bits."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _signed_fits(bound: int) -> bool:
    """Whether signed words of magnitude <= bound keep every float64
    quotient estimate within one, and so convert to float64 exactly."""
    return bound * _EST_ERR < 1 << 106


def _signed_bound(q: int, bound: int) -> int:
    """A bound on |r| for a signed product or reduction of a word of
    magnitude <= bound: |r| < q (1 + bound (2^-52 + 2^-106))."""
    return q + (q * bound * _EST_ERR >> 106) + 1


def _signed_schedule(q: int, n: int) -> tuple[bool, ...] | None:
    """The inverse stages that reduce their sum path, in execution order,
    or None when some word bound of either direction would not fit."""
    stages = n.bit_length() - 1
    bound = q - 1
    for _ in range(stages):                  # forward: lo +- r
        bound += _signed_bound(q, bound)
    if not _signed_fits(bound):
        return None
    bound, reduce = q - 1, []
    for s in range(stages):
        diff = 2 * bound                     # lo - hi, and lo + hi
        if not _signed_fits(diff):
            return None
        prod = _signed_bound(q, diff)
        # The sum feeds the next stage's difference; after the last stage
        # it only takes 1/n.
        cut = s + 1 < stages and not _signed_fits(2 * max(prod, diff))
        reduce.append(cut)
        total = _signed_bound(q, diff) if cut else diff
        bound = max(prod, total)
    last = max(prod, _signed_bound(q, total))
    return tuple(reduce) if _signed_fits(last) else None


@dataclass(frozen=True)
class NttTables:
    """Twiddles for one (q, n, psi) triple, in the form its kernel reads.

    Entries [h, 2h) of each twiddle table serve the stage that merges
    length-h sub-transforms (h = 1, 2, ..., n/2): entry h + u is
    psi^((2u + 1) n / (2h)) forward and its inverse backward, both
    gathered from one ladder of the powers of psi; entry 0 is unused.  The
    inverse table's h = 1 entry folds in 1/n.  `fwd_stages` and
    `inv_stages` hold, per stage in execution order, (h, words, reduce),
    with each of the twiddle words viewed in the shape of the stage's
    butterfly halves.  Under `signed`, words are the int64 twiddles w and
    c = fl(w / q), and `reduce` marks the inverse stages that reduce their
    sum path.  Otherwise words are the uint64 twiddles w and the 32-bit
    halves (c_hi, c_lo) of their Shoup companions floor(w * 2^64 / q),
    uint32 (uint64 in the transposed-layout stages), and `reduce` is
    unset.  `n_inv` is 1/n's words in the same form, for the inverse's
    sum path.
    """

    mod: PrimeModulus
    n: int
    signed: bool
    n_inv: tuple
    fwd_stages: tuple
    inv_stages: tuple


def _geometric(mod: PrimeModulus, first: int, ratio: int,
               count: int) -> np.ndarray:
    """first * ratio^e mod q for e in [0, count), count a power of two.

    A ladder of log2(count) doublings: the terms [k, 2k) are the terms
    [0, k) times ratio^k, one Shoup product each.
    """
    q = mod.q
    out = np.empty(count, dtype=U64)
    out[0] = first % q
    step, k = ratio % q, 1                   # step = ratio^k
    while k < count:
        w = np.array([step], dtype=U64)
        out[k:2 * k] = shoup_mul(out[:k], w, shoup_companions(w, mod), mod)
        step, k = step * step % q, 2 * k
    return out


def _kernel_words(words: np.ndarray, mod: PrimeModulus, signed: bool) -> tuple:
    """The twiddle words as the kernel reads them, from canonical uint64
    words: int64 twiddles and fl(w / q), or uint64 twiddles and the two
    uint32 halves of their Shoup companions."""
    if signed:
        w = words.astype(I64)
        return w, w / float(mod.q)
    return (words, *shoup_halves(shoup_companions(words, mod)))


def _stages(n: int, words: np.ndarray, mod: PrimeModulus, signed: bool,
            spans, reduce) -> tuple:
    b = _layout(n)[0]
    kernel_words = _kernel_words(words, mod, signed)
    out = []
    for h, cut in zip(spans, reduce):
        views = tuple(v[h:2 * h] for v in kernel_words)
        if h < b:                # halves of the transposed layout: (K, h, n/b)
            # At most b - 1 words in all: uint32 halves are widened here,
            # which spares each of their products over (K, h, n/b) a cast.
            views = tuple((v.astype(U64) if v.dtype == np.uint32 else v)
                          [:, None] for v in views)
        out.append((h, views, cut))
    return tuple(out)


@lru_cache(maxsize=None)
def _build_tables(mod: PrimeModulus, n: int, psi: int) -> NttTables:
    q = mod.q
    powers = _geometric(mod, 1, psi, 2 * n)          # psi^e, e in [0, 2n)
    if powers[n] != q - 1:
        raise ConfigurationError(f"root {psi} lacks order {2 * n} mod {q}")
    spans = [1 << k for k in range(n.bit_length() - 1)]
    # Stage h merges length-h sub-transforms; the sub-root is the n/(2h)-th
    # power of psi, taken at odd exponents.  Entry 0 is unused.
    exps = np.concatenate(
        [[0], *(np.arange(1, 2 * h, 2) * (n // (2 * h)) for h in spans)])
    fwd = powers[exps]
    inv = powers[-exps]                  # psi^-e = psi^(2n - e), e in (0, n)
    n_inv = pow(n, -1, q)
    inv[1] = int(inv[1]) * n_inv % q
    schedule = _signed_schedule(q, n)
    signed = schedule is not None
    words = _kernel_words(np.array([n_inv], dtype=U64), mod, signed)
    return NttTables(
        mod=mod, n=n, signed=signed,
        n_inv=tuple(v[0] for v in words),
        fwd_stages=_stages(n, fwd, mod, signed, spans, [False] * len(spans)),
        inv_stages=_stages(n, inv, mod, signed, spans[::-1],
                           schedule or [False] * len(spans)))


def get_tables(mod: PrimeModulus, n: int) -> NttTables:
    if n < 2 or n & (n - 1):
        raise ConfigurationError(f"transform length {n} is not a power of two >= 2")
    if mod.two_n % (2 * n):
        raise ConfigurationError(
            f"modulus root order {mod.two_n} does not cover length {n}")
    return _build_tables(mod, n, pow(mod.root, mod.two_n // (2 * n), mod.q))


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


def _signed_mul(a: np.ndarray, w, c, q: np.int64,
                out: np.ndarray | None = None) -> np.ndarray:
    """a * w - trunc(a * c) * q for c = fl(w / q), with
    |r| < q (1 + |a| 2^-52) for |a| below the schedule's bound.  `out` may
    be `a` itself."""
    quot = np.multiply(a, c).astype(I64)
    quot *= q
    r = np.multiply(a, w, out=out)
    r -= quot                               # wrapping, exact mod 2^64
    return r


def _canonical(x: np.ndarray, t: NttTables, bound: int) -> np.ndarray:
    """Canonical uint64 words, in place, from a transform's last words:
    signed ones within the schedule's bound, or unsigned ones below
    bound * q, bound a power of two."""
    q = t.mod.q
    if t.signed:
        # floor(x * fl(1/q)) is floor(x / q), or one less at an exact
        # multiple of q, so x lands in [0, q].
        est = np.multiply(x, 1.0 / q)
        np.floor(est, out=est)
        quot = est.astype(I64)
        quot *= q
        x -= quot
        x = x.view(U64)
        return np.minimum(x, x - U64(q), out=x)
    while bound > 1:
        bound //= 2
        np.minimum(x, x - U64(bound * q), out=x)
    return x


def _forward(x: np.ndarray, t: NttTables) -> np.ndarray:
    """(R, n) canonical coefficient rows -> evaluation rows."""
    rows, n = x.shape
    b, gather, _ = _layout(n)
    m = n // b
    x = np.take(x, gather, axis=-1).reshape(rows, b, m)
    if t.signed:
        x = x.view(I64)
        q = I64(t.mod.q)
    else:
        q = U64(t.mod.q)
        cap = U64(4 * t.mod.q)                 # words stay below 2 cap = 8q
    for h, words, _ in t.fwd_stages:
        if h == b:
            x = x.transpose(0, 2, 1).reshape(rows, n)
        y = x.reshape(-1, 2, h, m) if h < b else x.reshape(-1, 2, h)
        lo, hi = y[:, 0], y[:, 1]
        if t.signed:
            r = _signed_mul(hi, *words, q)
            np.subtract(lo, r, out=hi)
            lo += r                        # bounds grow by about q a stage
            continue
        r = shoup_estimate(hi, *words, q)                  # [0, cap)
        np.subtract(lo, cap, out=hi)
        np.minimum(lo, hi, out=lo)                         # [0, cap)
        np.subtract(lo, r, out=hi)
        hi += cap                                          # (0, 2 cap)
        lo += r                                            # [0, 2 cap)
    # With b == n, n / b = 1: no transpose.
    return _canonical(x.reshape(rows, n), t, 8)


def _inverse(x: np.ndarray, t: NttTables) -> np.ndarray:
    """(R, n) canonical evaluation rows -> coefficient rows."""
    rows, n = x.shape
    b, _, gather = _layout(n)
    m = n // b
    if t.signed:
        x = x.astype(I64)
        q = I64(t.mod.q)
        by_one = (I64(1), 1.0 / t.mod.q)       # a reduction
    else:
        x = x.copy()
        q = U64(t.mod.q)
        cap = U64(4 * t.mod.q)                 # stored words stay below cap
    for h, words, reduce in t.inv_stages:
        if h == b // 2:
            x = x.reshape(rows, m, b).transpose(0, 2, 1).copy()
        y = x.reshape(-1, 2, h, m) if h < b else x.reshape(-1, 2, h)
        lo, hi = y[:, 0], y[:, 1]
        if t.signed:
            diff = lo - hi
            lo += hi                       # the sum path's bound doubles
            if reduce:
                _signed_mul(lo, *by_one, q, out=lo)
            _signed_mul(diff, *words, q, out=hi)
            continue
        diff = lo + cap
        diff -= hi                                         # (0, 2 cap)
        lo += hi
        np.subtract(lo, cap, out=hi)
        np.minimum(lo, hi, out=lo)                         # [0, cap)
        shoup_estimate(diff, *words, q, out=hi)            # [0, cap)
    # 1/n lives in the last stage: the difference path's twiddles carry it
    # already, the sum path takes it here.
    if t.signed:
        _signed_mul(lo, *t.n_inv, q, out=lo)
    else:
        shoup_estimate(lo, *t.n_inv, q, out=lo)
    x = _canonical(x.reshape(rows, n), t, 4)
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
        out: np.ndarray | None = None) -> np.ndarray:
    """Negacyclic NTT over the last axis; direction 'forward' or 'inverse'.

    Input words must be canonical, in [0, q).  The result goes to `out`
    (a C-contiguous uint64 array shaped like the input, which may be the
    input itself) or to a new array.
    """
    values = np.asarray(values, dtype=U64)
    return _transform(values, get_tables(mod, values.shape[-1]),
                      direction, out)


def _sqrt_len(n: int) -> int:
    s = 1 << ((n.bit_length() - 1) // 2)
    if s * s != n:
        raise ConfigurationError(f"four-step needs a square length, got {n}")
    return s


def _apply_twist(mat: np.ndarray, ratios: np.ndarray,
                 mod: PrimeModulus) -> np.ndarray:
    """Multiply mat[j, c] by ratios[j]^c, one column at a time.

    The ratios are fixed multipliers, so the column recurrence runs on
    Shoup products; the entry products are data by data, so Barrett.
    """
    ratios_shoup = shoup_companions(ratios, mod)
    col = np.ones(len(ratios), dtype=U64)
    out = np.empty_like(mat)
    for c in range(mat.shape[1]):
        out[:, c] = barrett_mul(mat[:, c], col, mod)
        col = shoup_mul(col, ratios, ratios_shoup, mod)
    return out


def four_step_ntt(values: np.ndarray, mod: PrimeModulus,
                  direction: str = "forward") -> np.ndarray:
    """Four-step evaluation of the same map as `ntt`, bit-identical output.

    Both passes are sqrt(n)-point negacyclic `ntt`s, whose root is
    eta = psi^sqrt(n).  Column pass over t1, giving [t0, j0].  Twist: entry
    (j0, t0) gains psi^(±(2 j0 + 1) t0).  Row pass over t0: the cyclic sum
    with root eta^2 that the output needs is the negacyclic one with root
    eta once entry t0 is scaled by eta^(-t0), so that factor folds into the
    twist, whose rows are expanded geometrically from the ratios
    psi^(±(2 j0 + 1 - sqrt(n))).  The inverse undoes the same steps in
    reverse.
    """
    values = np.asarray(values, dtype=U64)
    n = values.shape[-1]
    s = _sqrt_len(n)
    psi = pow(mod.root, mod.two_n // (2 * n), mod.q)
    base = psi if direction == "forward" else pow(psi, -1, mod.q)
    # psi^(±(2 j0 + 1 - s)) for j0 in [0, s): base^(1 - s) times (base^2)^j0.
    ratios = _geometric(mod, pow(base, 1 - s, mod.q), base * base, s)

    if direction == "forward":
        mat = values.reshape(s, s)                        # [t1, t0]
        cols = ntt(mat.T.copy(), mod, "forward")          # [t0, j0]
        twisted = _apply_twist(cols.T.copy(), ratios, mod)  # [j0, t0]
        rows = ntt(twisted, mod, "forward")               # [j0, j1]
        return rows.T.reshape(n).copy()                   # out[j1 * s + j0]
    if direction == "inverse":
        mat = values.reshape(s, s).T.copy()               # [j0, j1]
        rows = ntt(mat, mod, "inverse")                   # [j0, t0]
        untwisted = _apply_twist(rows, ratios, mod)
        cols = ntt(untwisted.T.copy(), mod, "inverse")    # [t0, t1]
        return cols.T.reshape(n).copy()
    raise ConfigurationError(f"unknown direction {direction!r}")
