"""Word-level modular arithmetic over NTT-friendly primes.

All bulk arithmetic runs on uint64 numpy arrays, over primes below 2^61
(`PrimeModulus`), which leaves the NTT's lazy butterflies room for words
up to 8q.  Products of two such operands need 128 bits, which numpy
lacks, so products are assembled from 32-bit halves into an explicit
(hi, lo) pair and reduced with one of two strategies:

* Shoup for every product by a fixed multiplier (NTT twiddles,
  base-conversion inverse factors, per-limb scalars): the multiplier
  rides with its companion floor(w * 2^64 / q).  `shoup_estimate` takes
  the quotient from three 32-bit partial products of the companion's
  halves and leaves the product in [0, 4q), which the NTT's wide
  butterflies carry between stages; `shoup_mul_lazy` subtracts 2q once for
  [0, 2q), and one more subtract makes it canonical.  (The NTT's signed
  kernel for the 40-bit primes keeps int64 words and a product of its
  own; see `ntt`.)
* Barrett with a precomputed floor(2^128 / q) for general data-by-data
  products (multiply-accumulate paths); a sum of several 128-bit products
  can be reduced once.

Shoup's and Barrett's quotient estimates come from float64 instead when
the words involved stay below 2^48, which covers the 40-bit scale primes:
a float64 multiply replaces the partial products.  A sum of products
whose quotient float64 estimates to within one, below and never above,
is reduced by `float_quotient_reduce` from that estimate and the wrapped
sum of the products' low words: `mul_sum`'s float path, and base
conversion's rows (`rnspoly.base_convert`), which keep their quotient
small by splitting each word into 32-bit halves.  Every strategy returns
the canonical representative in [0, q); tests cross-check them against
wide-integer reference arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

U64 = np.uint64
MASK32 = U64(0xFFFFFFFF)
SHIFT32 = U64(32)

# Deterministic Miller-Rabin witnesses for all 64-bit integers.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(bits: int, count: int, two_n: int,
                        skip: tuple[int, ...] = ()) -> list[int]:
    """Largest `count` primes below 2^bits with q = 1 (mod two_n).

    Scanning downward keeps the set deterministic for a given request.
    """
    if bits < 2 or bits > 61:
        raise ConfigurationError(f"prime width {bits} outside supported 2..61")
    primes: list[int] = []
    q = ((1 << bits) - 1) // two_n * two_n + 1
    while len(primes) < count:
        if q < two_n + 1 or q.bit_length() < bits - 1:
            raise ConfigurationError(
                f"not enough {bits}-bit primes with q = 1 mod {two_n}")
        if q not in skip and is_prime(q):
            primes.append(q)
        q -= two_n
    return primes


def _find_2n_root(q: int, two_n: int) -> int:
    """Smallest-generator primitive two_n-th root of unity mod q."""
    if (q - 1) % two_n != 0:
        raise ConfigurationError(f"{q} is not 1 mod {two_n}")
    for g in range(2, q):
        root = pow(g, (q - 1) // two_n, q)
        # order divides two_n (a power of two); root^(two_n/2) = -1 pins it.
        if pow(root, two_n // 2, q) == q - 1:
            return root
    raise ConfigurationError(f"no primitive {two_n}-th root mod {q}")


@dataclass(frozen=True)
class PrimeModulus:
    """An NTT-friendly prime with cached reduction constants.

    `two_n` is the transform length the prime was generated for, a power of
    two; `root` is always searched for: the smallest-generator primitive
    two_n-th root of unity mod q (`_find_2n_root`), never an argument.  A
    composite q is refused before any search: the search assumes a prime
    and need not end for a composite.  So is a q of 2^61 or more, whose
    NTT words would pass 2^64 under the wide kernel's 8q bound (`ntt`).
    """

    q: int
    two_n: int
    root: int = field(init=False)
    # Barrett: (hi, lo) words of floor(2^128 / q).
    ratio_hi: int = field(init=False)
    ratio_lo: int = field(init=False)

    def __post_init__(self):
        q = self.q
        if q % 2 == 0 or q.bit_length() > 61:
            raise ConfigurationError(f"modulus {q} must be odd and < 2^61")
        if not is_prime(q):
            raise ConfigurationError(f"modulus {q} is not prime")
        two_n = self.two_n
        if two_n < 2 or two_n & (two_n - 1):
            raise ConfigurationError(
                f"root order {two_n} is not a power of two >= 2")
        if (q - 1) % two_n != 0:
            raise ConfigurationError(f"{q} != 1 mod {two_n}")
        object.__setattr__(self, "root", _find_2n_root(q, two_n))
        ratio = (1 << 128) // q
        object.__setattr__(self, "ratio_hi", ratio >> 64)
        object.__setattr__(self, "ratio_lo", ratio & ((1 << 64) - 1))

    @property
    def bit_width(self) -> int:
        return self.q.bit_length()


def shoup_words(words, qs) -> tuple[np.ndarray, np.ndarray]:
    """Fixed multipliers w < q and their companions floor(w * 2^64 / q)
    as uint64 arrays; qs[k] is the modulus of words[k]."""
    words = list(words)
    return (np.array(words, dtype=U64),
            np.array([(w << 64) // q for w, q in zip(words, qs)], dtype=U64))


def _wrapping(fn):
    """Let `fn` wrap mod 2^64 silently on scalar operands too.

    numpy checks overflow only in scalar arithmetic; array arithmetic wraps
    without a check, so only an all-scalar call pays for `errstate`.
    """
    @functools.wraps(fn)
    def call(a, b, *rest, **kw):
        if getattr(a, "ndim", 0) or getattr(b, "ndim", 0):
            return fn(a, b, *rest, **kw)
        with np.errstate(over="ignore"):
            return fn(a, b, *rest, **kw)
    return call


@_wrapping
def mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product, from 32-bit halves.

    Each partial sum below stays under 2^64: (2^32 - 1)^2 + 2 (2^32 - 1)
    = 2^64 - 1.
    """
    a0 = a & MASK32
    a1 = a >> SHIFT32
    b0 = b & MASK32
    b1 = b >> SHIFT32
    t = a0 * b0
    t >>= SHIFT32
    t += a1 * b0
    mid = t & MASK32
    mid += a0 * b1
    mid >>= SHIFT32
    t >>= SHIFT32
    hi = a1 * b1
    hi += t
    hi += mid
    return hi


def shoup_companions(w: np.ndarray, mod: PrimeModulus) -> np.ndarray:
    """floor(w * 2^64 / q) for a uint64 array of words w < q, in bulk.

    With floor(2^128 / q) = r_hi 2^64 + r_lo, the estimate
    w r_hi + mulhi(w, r_lo) is floor(w * floor(2^128 / q) / 2^64), which
    falls short of w * 2^64 / q by less than w / 2^64 < 1: the companion
    or one less.  The remainder w 2^64 - est q is then below 2q < 2^64,
    so its wrapped value -est q mod 2^64 is exact, and one test against q
    corrects the estimate.  w r_hi < 2^64 because w < q.
    """
    q = U64(mod.q)
    est = mulhi(w, U64(mod.ratio_lo))
    est += w * U64(mod.ratio_hi)
    rem = est * q
    np.negative(rem, out=rem)                # w 2^64 - est q, mod 2^64
    est += rem >= q
    return est


def _mulhi_narrow(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """mulhi for a multiplier b < 2^32: two products instead of four."""
    t = a & MASK32
    t *= b
    t >>= SHIFT32
    hi = a >> SHIFT32
    hi *= b
    hi += t                                  # < 2^64: a1*b + (a0*b >> 32)
    hi >>= SHIFT32
    return hi


@_wrapping
def mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128 product as (hi, lo) uint64 arrays."""
    return mulhi(a, b), a * b       # wrapping product is the exact low word


# Words below this convert to float64 exactly, and a quotient below it is
# estimated in float64 to within one.
SMALL_WORD = 1 << 48
_LOW_BIAS = 1.0 - 2.0 ** -49
# The most pairs whose float64 quotient `_mul_sum_float` keeps within one.
FLOAT_PAIRS = 14


def _as_float(words) -> np.ndarray:
    """Words below 2^63 as float64; exact below 2^53."""
    return np.asarray(words).view(np.int64).astype(np.float64)


def shoup_halves(w_shoup) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 32-bit halves of Shoup companions, as uint32,
    the form `shoup_estimate` reads."""
    w_shoup = np.asarray(w_shoup, dtype=U64)
    return ((w_shoup >> SHIFT32).astype(np.uint32),
            (w_shoup & MASK32).astype(np.uint32))


@_wrapping
def shoup_estimate(a: np.ndarray, w: np.ndarray, w_hi: np.ndarray,
                   w_lo: np.ndarray, q: np.uint64,
                   out: np.ndarray | None = None) -> np.ndarray:
    """a * w mod q, up to three q: a value in [0, 4q) for any a < 2^64.

    Shoup's quotient floor(a * w_shoup / 2^64), with
    w_shoup = floor(w * 2^64 / q) = w_hi 2^32 + w_lo, is floor(a * w / q)
    or one less.  It is estimated from three 32-bit partial products of
    a = a1 2^32 + a0, a1 w_hi + (a1 w_lo >> 32) + (a0 w_hi >> 32), which
    drop the low product and the carries of the middle word: at most two
    more below.  So a * w less the estimate times q lies in [0, 4q).
    Requires q < 2^62, w < q, and a or w an array (the partial products
    run in place).  `out` may be `a` itself.
    """
    t = a >> SHIFT32
    quot = t * w_hi
    t = t * w_lo                            # the shape a and w broadcast to
    t >>= SHIFT32
    quot += t
    np.multiply(a & MASK32, w_hi, out=t)
    t >>= SHIFT32
    quot += t                               # low by at most three
    quot *= q
    r = np.multiply(a, w, out=out)
    r -= quot                               # wrapping, exact mod 2^64
    return r


@_wrapping
def shoup_mul_lazy(a: np.ndarray, w: np.ndarray, w_shoup: np.ndarray,
                   q: np.uint64, small: bool = False) -> np.ndarray:
    """a * w mod q, up to one q: a value in [0, 2q) for any a < 2^64.

    `shoup_estimate`, in [0, 4q), then one conditional subtract of 2q.
    Requires q < 2^62, w < q, w_shoup = floor(w * 2^64 / q), and a or w
    an array.

    `small` promises a < 2^48.  The estimate then comes from float64 as a
    times w_shoup / 2^64, biased low by a relative 2^-49: a converts
    exactly, and after the roundings the product lies in
    (a*w/q - 1, a*w/q], so truncation is floor(a * w / q) or one less, and
    no subtract is needed.
    """
    if not small:
        r = shoup_estimate(a, w, w_shoup >> SHIFT32, w_shoup & MASK32, q)
        return np.minimum(r, r - (q + q), out=r)
    ratio = np.asarray(w_shoup).astype(np.float64)
    ratio *= 2.0 ** -64 * _LOW_BIAS
    est = _as_float(a) * ratio
    quot = est.astype(np.int64).view(U64)
    quot *= q
    r = a * w
    r -= quot                               # wrapping, exact mod 2^64
    return r


@_wrapping
def shoup_mul(a: np.ndarray, w: np.ndarray, w_shoup: np.ndarray,
              mod: PrimeModulus) -> np.ndarray:
    """a * w mod q for canonical words a < q and a fixed multiplier with
    w_shoup = floor(w * 2^64 / q).

    `shoup_mul_lazy` plus one conditional subtract; a < q keeps a below
    2^48 whenever q is, so primes of at most 48 bits take its float path.
    """
    q = U64(mod.q)
    r = shoup_mul_lazy(a, w, w_shoup, q, small=mod.q <= SMALL_WORD)
    return np.minimum(r, r - q)


@_wrapping
def barrett_reduce128(hi: np.ndarray, lo: np.ndarray, mod: PrimeModulus) -> np.ndarray:
    """T mod q for a 128-bit T = hi * 2^64 + lo, any T < 2^128.

    With ratio = floor(2^128 / q) = r_hi * 2^64 + r_lo, the Barrett quotient
    floor(T * ratio / 2^128) is floor(T / q) or one less.  It is estimated
    from the three partial products that reach the top word,
    hi * r_hi + mulhi(hi, r_lo) + mulhi(lo, r_hi), dropping the carries of
    the middle word and the low product mulhi(lo, r_lo): at most two more
    below.  All of it wraps mod 2^64, which the remainder below tolerates,
    so the remainder lands in [0, 4q) and two conditional subtracts (q <
    2^62) make it canonical.
    """
    q = U64(mod.q)
    r_hi = U64(mod.ratio_hi)
    quot = mulhi(hi, U64(mod.ratio_lo))
    quot += (_mulhi_narrow(lo, r_hi) if mod.ratio_hi >> 32 == 0
             else mulhi(lo, r_hi))
    quot += hi * r_hi
    quot *= q
    rem = lo - quot                          # wrapping, correct mod 2^64
    rem = np.minimum(rem, rem - (q + q))     # [0, 4q) -> [0, 2q)
    return np.minimum(rem, rem - q)


@_wrapping
def barrett_mul(a: np.ndarray, b: np.ndarray, mod: PrimeModulus) -> np.ndarray:
    """General a * b mod q for words in [0, q); see `mul_sum`."""
    return mul_sum([(np.asarray(a, dtype=U64), np.asarray(b, dtype=U64))], mod)


def mul_sum(pairs, mod: PrimeModulus) -> np.ndarray:
    """sum_k a_k * b_k mod q over (a_k, b_k) pairs of words in [0, q).

    Each word takes one reduction, not one per product; the canonical
    result is the same.  For k <= FLOAT_PAIRS pairs with k * q <= 2^48, the
    quotient comes from float64 (`_mul_sum_float`).  Otherwise the products
    accumulate exactly in 128 bits for one Barrett reduction, and a sum is
    folded back to one word before it could pass 2^128.
    """
    pairs = list(pairs)
    if len(pairs) <= FLOAT_PAIRS and len(pairs) * mod.q <= SMALL_WORD:
        return _mul_sum_float(pairs, mod)
    room = max(1, ((1 << 128) - 1) // (mod.q - 1) ** 2 - 1)
    hi = lo = None
    for k, (a, b) in enumerate(pairs):
        p_hi, p_lo = mul128(a, b)
        if hi is None:
            hi, lo = p_hi, p_lo
            continue
        if k % room == 0:
            lo = barrett_reduce128(hi, lo, mod)
            hi = np.zeros_like(lo)
        lo += p_lo
        p_hi += lo < p_lo                        # carry out of the low word
        hi += p_hi
    return barrett_reduce128(hi, lo, mod)


def _mul_sum_float(pairs, mod: PrimeModulus) -> np.ndarray:
    """`mul_sum` with the quotient from float64, for k <= FLOAT_PAIRS pairs
    and k * q <= 2^48.

    The operands convert exactly.  The estimate of the exact quotient
    x = sum_k a_k b_k / q passes each product through at most k + 2
    roundings, each a factor (1 + e) with |e| <= u = 2^-53: its own, k - 1
    in the sum (every term is non-negative), one in fl(_LOW_BIAS / q) and
    one in the last multiply.  With the low bias 1 - 2^-49 = 1 - 16u the
    estimate lies between x (1 - u)^(k+2) (1 - 16u) and
    x (1 + u)^(k+2) (1 - 16u).  The upper factor is at most one while
    k + 2 <= 16, because (1 + u)^16 < 1 / (1 - 16u); at k + 2 = 17 it is
    above one.  The lower factor is then above 1 - 32u, so with
    x < k * q <= 2^48 the estimate is above x - 1, as
    `float_quotient_reduce` requires.
    """
    est = low = None
    for a, b in pairs:
        t = _as_float(a) * _as_float(b)
        p = a * b
        if est is None:
            est, low = t, p
        else:
            est += t
            low += p
    est *= _LOW_BIAS / mod.q
    return float_quotient_reduce(est, low, U64(mod.q))


def float_quotient_reduce(est: np.ndarray, low: np.ndarray,
                          q: np.ndarray) -> np.ndarray:
    """X mod q, canonical, in place of `low`, for exact non-negative sums
    X given low = X mod 2^64 and a float64 quotient estimate est with
    X / q - 1 < est <= X / q.  q < 2^63 may be a column, one modulus per
    row.

    The truncation of est is floor(X / q) or one less, below 2^63, so X
    less it times q lies in [0, 2q): the wrapped difference of the low
    words is exact, and one conditional subtract makes it canonical.
    """
    quot = est.astype(np.int64).view(U64)
    quot *= q
    low -= quot                              # wrapping, exact mod 2^64
    np.subtract(low, q, out=quot)
    return np.minimum(low, quot, out=low)


@_wrapping
def mod_add(a: np.ndarray, b: np.ndarray, mod: PrimeModulus) -> np.ndarray:
    # s < 2q < 2^64; when s < q the wrapped s - q exceeds 2^63, so the
    # minimum picks the canonical representative without a boolean pass.
    q = U64(mod.q)
    s = np.asarray(a, dtype=U64) + np.asarray(b, dtype=U64)
    return np.minimum(s, s - q)


@_wrapping
def mod_sub(a: np.ndarray, b: np.ndarray, mod: PrimeModulus) -> np.ndarray:
    q = U64(mod.q)
    d = np.asarray(a, dtype=U64) + (q - np.asarray(b, dtype=U64))
    return np.minimum(d, d - q)


def mod_neg(a: np.ndarray, mod: PrimeModulus) -> np.ndarray:
    return mod_sub(U64(0), a, mod)
