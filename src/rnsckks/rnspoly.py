"""RNS polynomials, fast base conversion, and Galois automorphisms.

A polynomial in Z_Q[X]/(X^N + 1) with Q = q_0 ... q_l is held as an
(l+1) x N uint64 matrix of per-prime residue limbs in evaluation (NTT)
representation, the only one an `RnsPolynomial` has.  Coefficient words
exist only as plain arrays inside base conversion (`convert_limbs`,
between its inverse and forward transforms) and the two CRT lifts:
`crt_reconstruct` reads `RnsPolynomial.coeffs`, and `crt_float` takes the
coefficient limbs its caller made.  Base conversion follows the textbook
approximate form: out_i = sum_j ([P]_{p_j} * phat_j^{-1} mod p_j) * phat_j
mod q_i, read with signed step-1 residues, which may add an integer
multiple k * P_src, |k| <= ceil(|source| / 2); callers rely on that slack
being annihilated downstream (key-switching) or bounded (ModDown).
From a single prime there is no slack.  Each target word is one sum of
products of 32-bit words by the table's factors, reduced once from a
float64 quotient estimate (`base_convert` proves the estimate's bound).

Integer plaintexts enter the evaluation domain through one lift,
`lift_int_coeffs`.  A row of M coefficients, M a power of two dividing
N, is an element of Z[X^(N/M)]: its M-point transform is one period of
the N-point transform of the polynomial it stands for, repeated N/M
times, word for word (the lift's docstring has the identity).  The lift
transforms each row at the length it is given, so a slot vector of m
slots, built at its 2m coefficients, lifts through 2m-point transforms,
and no full row is built.

A polynomial whose rows are shorter than the ring degree N of its basis
(`LimbBasis.ring_degree`) is such a period: its full rows repeat it.
The arithmetic broadcasts a period over the full rows of the other
operands through a folded (..., N/P, P) view, without a copy;
`RnsPolynomial.widened` tiles it for the readers that need whole rows
(`coeffs`, so `crt_reconstruct`, `automorphism` and the serial writers).
The converse is `project`: the m-word period of a polynomial's
projection onto Z[X^(N/m)], folded from its evaluation words, which is
what decoding an (m/2)-slot message reads.

Several polynomials over one basis stack as limbs shaped (L, ..., N): the
leading axis is the prime, so each prime's rows sit together and
`transform_limbs` runs them through one `ntt` call (in cache-sized
blocks) instead of one call per row.  A ciphertext is one such stack,
(L, 2, N).  The arithmetic and `automorphism` take any stack, each prime's
output rows the broadcast of the operands' rows, so a ciphertext times a
(L, N) plaintext multiplies both halves; `base_convert` and the CRT lifts
refuse one.  `convert_limbs` is the one base conversion of a polynomial
(inverse NTT, BConv, forward NTT) over a stack.  Outside the selftest it
has two callers: `ckks.mod_up`, once per digit piece (key switching, and
the bootstrap's modulus raise from the base prime), and `ckks.mod_down`,
once per call (key switching and rescale).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BasisMismatchError, ConfigurationError
from .modmath import (MASK32, SHIFT32, SMALL_WORD, U64, PrimeModulus,
                      barrett_mul, float_quotient_reduce, mod_add, mod_neg,
                      mod_sub, mul_sum, shoup_mul, shoup_mul_lazy,
                      shoup_words)
from .ntt import ntt


@dataclass(frozen=True)
class LimbBasis:
    """An ordered set of coprime NTT-friendly primes."""

    primes: tuple[PrimeModulus, ...]

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    @property
    def modulus(self) -> int:
        return reduce(lambda a, b: a * b.q, self.primes, 1)

    @property
    def qs(self) -> tuple[int, ...]:
        return tuple(p.q for p in self.primes)

    def concat(self, other: "LimbBasis") -> "LimbBasis":
        return LimbBasis(self.primes + other.primes)

    @property
    def ring_degree(self) -> int:
        """N of X^N + 1: half the root order the primes were made for."""
        return min((p.two_n for p in self.primes), default=0) // 2


@dataclass
class RnsPolynomial:
    """Evaluation-rep residue limbs plus their basis: one polynomial shaped
    (len(basis), N), or a stack shaped (len(basis), ..., N), dtype uint64.
    Rows shorter than N are one period of the full rows (module
    docstring).  There is no coefficient-rep polynomial: `coeffs` returns
    the coefficient words as a plain array."""

    basis: LimbBasis
    limbs: np.ndarray

    def __post_init__(self):
        if self.limbs.ndim < 2 or self.limbs.shape[0] != len(self.basis):
            raise BasisMismatchError(
                f"limb matrix {self.limbs.shape} does not match basis "
                f"of {len(self.basis)} primes")

    @property
    def n(self) -> int:
        """Words per row: the ring degree, or the length of a period."""
        return self.limbs.shape[-1]

    def coeffs(self) -> np.ndarray:
        """The coefficient limbs of the widened rows, shaped as they are."""
        return transform_limbs(self.widened().limbs, self.basis, "inverse")

    def widened(self) -> "RnsPolynomial":
        """Whole rows: a one-period polynomial tiled to the ring degree of
        its basis, a polynomial of whole rows as it is."""
        n = self.basis.ring_degree
        if self.n >= n:
            return self
        if n % self.n:
            raise BasisMismatchError(
                f"rows of {self.n} words do not tile ring degree {n}")
        return RnsPolynomial(self.basis, np.tile(self.limbs, n // self.n))


def transform_limbs(limbs: np.ndarray, basis: LimbBasis, direction: str,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Limbs shaped (L, ..., N) over `basis` through the negacyclic NTT in
    `direction`, one `ntt` call per prime over all of that prime's rows.
    Writes into `out` (which may be `limbs`) or a new array."""
    out = np.empty(limbs.shape, dtype=U64) if out is None else out
    for i, p in enumerate(basis):
        ntt(limbs[i], p, direction, out=out[i])
    return out


def lift_int_coeffs(coeffs, basis: LimbBasis) -> np.ndarray:
    """Signed int64 coefficients shaped (..., M) as one period of their
    evaluation-rep limbs, shaped (L, ..., M).

    Every integer plaintext enters the evaluation domain here: encoding
    and OF-Limb seed extension share this lift, so a seed rebuilds exactly
    the words full precomputation stores.

    A row of M words, M a power of two dividing the ring degree N, is the
    polynomial P(X) = p(X^(N/M)), p the row.  The M-point transform takes
    its root from the row length, psi^(N/M), and P(psi^(2j+1)) =
    p((psi^(N/M))^(2j+1)) repeats with period M in j, so that transform
    is one period of every word of the N-point transform of P.  The rows
    are transformed in place.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.empty((len(basis),) + coeffs.shape, dtype=U64)
    for i, p in enumerate(basis):
        np.remainder(coeffs, np.int64(p.q), out=out[i].view(np.int64))
    return transform_limbs(out, basis, "forward", out=out)


def one_poly(p: RnsPolynomial):
    """Refuse a stack where one polynomial is expected."""
    if p.limbs.ndim != 2:
        raise BasisMismatchError(
            f"expected one polynomial, got a stack shaped {p.limbs.shape}")


def _row_layout(polys) -> tuple[tuple, int]:
    """One prime's output row shape, the broadcast of the operands' rows,
    and the width their rows fold at.

    Rows of one length fold at that length.  Shorter rows are a period of
    the longest (module docstring): every operand folds to
    (..., length / width, width) at the width of the longest shorter one,
    so a period of that width broadcasts over the folds without a copy
    and a still shorter one is tiled to it (`_folded`).
    """
    a = polys[0]
    for b in polys[1:]:
        if b.basis != a.basis:
            raise BasisMismatchError("operands live over different bases")
    widths = sorted({p.n for p in polys})
    if any(long % short for short, long in zip(widths, widths[1:])):
        raise BasisMismatchError(
            f"rows of {widths} words do not tile one another")
    rows = np.broadcast_shapes(*(p.limbs.shape[1:-1] for p in polys))
    return rows + (widths[-1],), widths[-2 if len(widths) > 1 else -1]


def _folded(rows: np.ndarray, width: int) -> np.ndarray:
    """Rows shaped (..., M) as (..., M / width, width); a period shorter
    than `width` is tiled to it first."""
    if rows.shape[-1] < width:
        rows = np.tile(rows, width // rows.shape[-1])
    return rows.reshape(rows.shape[:-1] + (-1, width))


def _rowwise(op, a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    rows, width = _row_layout([a, b])
    out = np.empty((len(a.basis),) + rows, dtype=U64)
    view = _folded(out, width)
    for i, p in enumerate(a.basis):
        view[i] = op(_folded(a.limbs[i], width), _folded(b.limbs[i], width),
                     p)
    return RnsPolynomial(a.basis, out)


def rp_add(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    return _rowwise(mod_add, a, b)


def rp_sub(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    return _rowwise(mod_sub, a, b)


def rp_neg(a: RnsPolynomial) -> RnsPolynomial:
    return _rowwise(lambda x, _, p: mod_neg(x, p), a, a)


def rp_mul(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    """Pointwise product; the multiply-accumulate path, Barrett reduced."""
    return _rowwise(barrett_mul, a, b)


def rp_mul_sum(pairs) -> RnsPolynomial:
    """sum_k a_k * b_k for (a_k, b_k) operand pairs over one basis, with one
    Barrett reduction per word instead of one per product."""
    pairs = list(pairs)
    a0 = pairs[0][0]
    rows, width = _row_layout([p for pair in pairs for p in pair])
    out = np.empty((len(a0.basis),) + rows, dtype=U64)
    view = _folded(out, width)
    for i, p in enumerate(a0.basis):
        terms = [(_folded(a.limbs[i], width), _folded(b.limbs[i], width))
                 for a, b in pairs]
        # The first term spans the output, so the sum grows in place.
        terms[0] = (np.broadcast_to(terms[0][0], view.shape[1:]), terms[0][1])
        view[i] = mul_sum(terms, p)
    return RnsPolynomial(a0.basis, out)


def rp_scalar_mul_per_limb(a: RnsPolynomial, scalars: dict[int, int]) -> RnsPolynomial:
    """Multiply limb of prime q by scalars[q]; used for exact-division tricks."""
    ws, ws_shoup = shoup_words([scalars[q] % q for q in a.basis.qs],
                               a.basis.qs)
    out = np.empty_like(a.limbs)
    for i, p in enumerate(a.basis):
        out[i] = shoup_mul(a.limbs[i], ws[i], ws_shoup[i], p)
    return RnsPolynomial(a.basis, out)


# ---------------------------------------------------------------------------
# Fast base conversion.

# Base conversion's float64 quotient is biased low by a relative 2^-44,
# which covers up to BCONV_ROUNDINGS roundings of each term (`base_convert`).
_BCONV_BIAS_BITS = 44
BCONV_ROUNDINGS = 1 << 9
# Words of the pair matrix and the target rows per column block: they and
# their float64 copies stay within a few hundred KiB.
_BCONV_BLOCK_WORDS = 1 << 15


def _bconv_quotient(factor: int, q: int) -> float:
    """factor (1 - 2^-44) / q, correctly rounded to float64."""
    return factor * ((1 << _BCONV_BIAS_BITS) - 1) / (q << _BCONV_BIAS_BITS)


@dataclass(frozen=True)
class BaseTable:
    """Precomputed factors for source -> target fast base conversion.

    `inv_factors[j]` is phat_j^{-1} mod p_j, with its Shoup companion
    `inv_shoup[j]`, where phat_j = prod_{k != j} p_k over the S source
    primes.  Row i of `factors` holds the 2S + 1 multipliers of target
    prime q_i, in the order of `base_convert`'s pairs: phat_j mod q_i, then
    2^32 phat_j mod q_i, then -P_src mod q_i for the signed correction.
    `quotients[i, k]` is factors[i, k] (1 - 2^-44) / q_i rounded to float64.
    """

    source: LimbBasis
    target: LimbBasis
    inv_factors: np.ndarray
    inv_shoup: np.ndarray
    factors: np.ndarray
    quotients: np.ndarray


@lru_cache(maxsize=None)
def make_base_table(source: LimbBasis, target: LimbBasis) -> BaseTable:
    pairs = 2 * len(source) + 1
    if pairs + 1 > BCONV_ROUNDINGS:
        raise ConfigurationError(
            f"base conversion from {len(source)} primes exceeds the "
            f"{BCONV_ROUNDINGS} roundings its float64 quotient allows")
    p_src = source.modulus
    phats = [p_src // pj.q for pj in source]
    inv, inv_sh = shoup_words([pow(ph % pj.q, -1, pj.q)
                               for ph, pj in zip(phats, source)], source.qs)
    fac = [[ph % q for ph in phats] + [(ph << 32) % q for ph in phats]
           + [-p_src % q] for q in target.qs]
    quo = [[_bconv_quotient(f, q) for f in row]
           for row, q in zip(fac, target.qs)]
    shape = (len(target), pairs)
    return BaseTable(source=source, target=target,
                     inv_factors=inv, inv_shoup=inv_sh,
                     factors=np.array(fac, dtype=U64).reshape(shape),
                     quotients=np.array(quo, dtype=np.float64).reshape(shape))


def base_convert(coeffs: np.ndarray, table: BaseTable) -> np.ndarray:
    """Fast base conversion of coefficient limbs shaped (S, n) over the
    table's source to limbs shaped (T, n) over its target.

    The step-1 residues v_j = [x_j phat_j^{-1}]_{p_j} are read as signed
    representatives: since v_j - b_j p_j with b_j = (v_j > p_j/2) shifts
    the sum by exactly (sum b_j) * P_src, the borrow count b times
    -P_src mod q_i converts the unsigned form; the leftover slack k * P_src
    then has |k| <= ceil(|source| / 2) and zero mean instead of a positive
    bias.

    Each target word is one sum of K = 2S + 1 products a_k f_k, f_k =
    factors[i, k] < q_i: the 32-bit halves of every v_j against phat_j and
    2^32 phat_j mod q_i, and b against -P_src mod q_i.  Every a_k is below
    2^32 and converts to float64 exactly, so X = sum_k a_k f_k has
    x = X / q_i < K 2^32.  Its low word X mod 2^64 is the wrapped uint64
    sum.  Its quotient comes from one float64 product of the pair matrix
    by `quotients`, whose entries are f_k (1 - d) / q_i, d = 2^-44, with
    one rounding each.  Each term then passes through at most K + 1
    roundings of relative size u = 2^-53: its entry, its product and K - 1
    in the sum, in any order, fused or not (every term is non-negative).
    So the estimate lies between x (1 - d) (1 - u)^(K+1) and
    x (1 - d) (1 + u)^(K+1).  The upper factor is at most one while
    K + 1 <= BCONV_ROUNDINGS = 2^9, since (1 + u)^(2^9) <= 1 / (1 - d);
    the lower one is then above 1 - 2d, and x < 2^9 2^32 makes x 2d < 1.
    So x - 1 < est <= x, which is `float_quotient_reduce`'s precondition.
    Columns run in blocks of a few hundred KiB of words.
    """
    if coeffs.ndim != 2 or coeffs.shape[0] != len(table.source):
        got = "a stack" if coeffs.ndim > 2 else "limbs"
        raise BasisMismatchError(
            f"expected ({len(table.source)}, n) limbs over the table source, "
            f"got {got} shaped {coeffs.shape}")
    s, n = coeffs.shape
    t, k = table.factors.shape
    p = np.array(table.source.qs, dtype=U64)[:, None]
    q = np.array(table.target.qs, dtype=U64)[:, None]
    inv = (table.inv_factors[:, None], table.inv_shoup[:, None])
    small = max(table.source.qs, default=0) <= SMALL_WORD
    out = np.empty((t, n), dtype=U64)
    cols = max(1, _BCONV_BLOCK_WORDS // (k + t))
    for lo in range(0, n, cols):
        v = shoup_mul_lazy(coeffs[:, lo:lo + cols], *inv, p, small=small)
        np.minimum(v, v - p, out=v)
        pairs = np.empty((k, v.shape[1]), dtype=U64)
        np.bitwise_and(v, MASK32, out=pairs[:s])
        np.right_shift(v, SHIFT32, out=pairs[s:2 * s])
        np.sum(v > p >> U64(1), axis=0, dtype=U64, out=pairs[-1])
        est = table.quotients @ pairs.astype(np.float64)
        low = out[:, lo:lo + cols]
        np.einsum("tk,kc->tc", table.factors, pairs, out=low)
        float_quotient_reduce(est, low, q)
    return out


def convert_limbs(limbs: np.ndarray, source: LimbBasis,
                  target: LimbBasis) -> np.ndarray:
    """Eval-rep limbs shaped (S, ..., N) over `source` as eval-rep limbs
    shaped (T, ..., N) over `target`, centered as `base_convert` is (from
    one prime, the centered lift).  Each prime's rows take one inverse and
    one forward transform; base conversion works coefficient by
    coefficient, so the stacked rows pass through it as one wide row."""
    coeffs = transform_limbs(limbs, source, "inverse")
    out = base_convert(coeffs.reshape(len(source), -1),
                       make_base_table(source, target))
    out = out.reshape((len(target),) + limbs.shape[1:])
    return transform_limbs(out, target, "forward", out=out)


# ---------------------------------------------------------------------------
# Galois automorphisms X -> X^(5^r mod 2N).

@lru_cache(maxsize=None)
def _eval_source(n: int, r: int) -> np.ndarray:
    """The evaluation word each output word of psi_r reads: output j is
    the point psi^(2j+1), taken from the point psi^((2j+1) 5^r)."""
    exp5 = pow(5, r % (n // 2), 2 * n)
    j = np.arange(n, dtype=np.int64)
    return ((2 * j + 1) * exp5) % (2 * n) // 2


def automorphism(p: RnsPolynomial, r: int) -> RnsPolynomial:
    """Apply psi_r: X -> X^(5^r mod 2N), a pure index permutation of the
    odd-exponent evaluation points, of the widened rows of a period.
    Every row of a stack is permuted alike."""
    p = p.widened()
    return RnsPolynomial(p.basis, p.limbs[..., _eval_source(p.n, r)])


# ---------------------------------------------------------------------------
# Projection onto a subring.

def project(p: RnsPolynomial, m: int) -> RnsPolynomial:
    """The projection of p onto Z[X^(N/m)], the polynomial of p's stride
    coefficients c[i N/m] alone, as one period of m words per row.

    Word j of the N-point transform is P(psi^(2j+1)), and the r = N/m
    words j + m t, t < r, are P at psi^(2j+1) times the r-th roots of
    unity psi^(2mt).  Their sum keeps only the terms whose exponent r
    divides: it is r times the m-point transform, at root psi^r, of the
    stride coefficients.  So each coset j mod m is summed by an exact
    mod-add tree and multiplied by r^-1 mod q, and the m-point inverse
    `ntt` of the result gives c[i r] mod q, word for word.  A period of
    M words stands for its N/M repeats, so it folds at its own length;
    a period shorter than m is tiled to m, as `widened` tiles it.  Rows
    of m words are returned as they are, the identity fold, which is the
    whole polynomial at m = N.
    """
    ring = p.basis.ring_degree
    if m < 1 or ring % m:
        raise ConfigurationError(
            f"a period of {m} words does not divide ring degree {ring}")
    if ring % p.n:          # so p.n and m, powers of two, tile each other
        raise BasisMismatchError(
            f"rows of {p.n} words do not tile a period of {m} words")
    limbs = p.limbs if p.n >= m else np.tile(p.limbs, m // p.n)
    fold = limbs.shape[-1] // m
    if fold == 1:
        return RnsPolynomial(p.basis, limbs)
    q = np.array(p.basis.qs, dtype=U64).reshape((-1,) + (1,) * limbs.ndim)
    x = limbs.reshape(limbs.shape[:-1] + (fold, m))
    while x.shape[-2] > 1:
        h = x.shape[-2] // 2
        s = x[..., :h, :] + x[..., h:, :]       # below 2q < 2^64
        x = np.minimum(s, s - q)
    inverses = {pm.q: pow(fold, -1, pm.q) for pm in p.basis}
    return rp_scalar_mul_per_limb(RnsPolynomial(p.basis, x[..., 0, :]),
                                  inverses)


# ---------------------------------------------------------------------------
# CRT reconstruction (big-integer exact path).

def crt_reconstruct(p: RnsPolynomial) -> np.ndarray:
    """Exact coefficients as Python integers, centered in (-Q/2, Q/2]."""
    one_poly(p)
    coeffs = p.coeffs()
    big_q = p.basis.modulus
    acc = np.zeros(coeffs.shape[1], dtype=object)
    for i, pm in enumerate(p.basis):
        q_hat = big_q // pm.q
        y = pow(q_hat % pm.q, -1, pm.q)
        t = barrett_mul(coeffs[i], np.array(y, dtype=U64), pm)
        acc += t.astype(object) * q_hat
    acc %= big_q
    return np.where(acc > big_q // 2, acc - big_q, acc)


# ---------------------------------------------------------------------------
# Float lift through centered mixed-radix digits.

@dataclass(frozen=True)
class _GarnerTable:
    """Constants of the mixed-radix lift over q_0, q_1, ..., q_{L-1}.

    With P_i = q_0 ... q_{i-1}: inv[i] = P_i^{-1} mod q_i; for j > i,
    radix[i, j] = P_i mod q_j and wrap[i, j] = -P_{i+1} mod q_j, the
    correction for a digit read as d_i - q_i (zero for j <= i).  Shoup
    companions ride along; the moduli enter the float evaluation as exact
    pairs hi + lo with a Dekker split of hi.
    """

    inv: np.ndarray
    inv_shoup: np.ndarray
    radix: np.ndarray               # (L, L, 1)
    radix_shoup: np.ndarray
    wrap: np.ndarray
    q_col: np.ndarray               # (L, 1)
    room: int                       # lazy terms below 3 q_j that fit 2^64
    split: tuple


@lru_cache(maxsize=None)
def _garner_table(basis: LimbBasis) -> _GarnerTable:
    qs = basis.qs
    big = [1]                       # big[i] = P_i
    for q in qs:
        big.append(big[-1] * q)
    inv, inv_sh = shoup_words([pow(p % q, -1, q) for p, q in zip(big, qs)],
                              qs)
    radix = [shoup_words([big[i] % q if j > i else 0
                          for j, q in enumerate(qs)], qs)
             for i in range(len(qs))]
    wrap = [[-big[i + 1] % q if j > i else 0 for j, q in enumerate(qs)]
            for i in range(len(qs))]
    split = []
    for q in qs:
        hi = float(q)
        split.append((hi, float(q - int(hi))) + _dekker(hi))
    return _GarnerTable(
        inv=inv, inv_shoup=inv_sh,
        radix=np.stack([w for w, _ in radix])[..., None],
        radix_shoup=np.stack([c for _, c in radix])[..., None],
        wrap=np.array(wrap, dtype=U64)[..., None],
        q_col=np.array(qs, dtype=U64)[:, None],
        room=((1 << 64) - 1) // max(qs) - 1, split=tuple(split))


_SPLITTER = 134217729.0              # 2^27 + 1


def _dekker(a):
    """a = hi + lo with each half of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def crt_float(coeffs: np.ndarray, basis: LimbBasis) -> np.ndarray:
    """Coefficient limbs shaped (L, n) over `basis` as the centered
    integers in (-Q/2, Q/2] they stand for, as float64, without big
    integers.

    The lift is coefficient by coefficient, so rows of any length n
    serve.  `ckks.decode` passes the m-point inverse transform of a
    `project`ion: m coefficients, not N, which are exactly the stride
    coefficients c[i N/m] of the polynomial (the fold sums whole cosets
    of evaluation words, with no rounding).  At m = N the fold is the
    identity and the rows are the polynomial's `coeffs`.

    Garner's algorithm yields digits d_i in (-q_i/2, q_i/2] with
    x = d_0 + d_1 P_1 + d_2 P_2 + ..., P_i = q_0 ... q_{i-1}.  Every tail
    d_0 + ... + d_{i-1} P_{i-1} lies within P_i / 2, so these are the
    digits of the centered lift itself, and the top nonzero term carries at
    least half of |x|.  Horner's rule from the top digit then runs in
    double-double arithmetic (about 106 bits), so the result is x rounded
    to nearest unless x lies within about 2^-100 of a rounding midpoint;
    `crt_reconstruct` is the exact reference.

    Once the tail through digit i matches x under every later prime, it
    is x (both lie within Q/2), so every later digit is zero: the loop
    stops there and Horner starts at digit i, which gives the words that
    zero digits would.
    """
    if coeffs.ndim != 2 or len(coeffs) != len(basis):
        raise BasisMismatchError(
            f"expected ({len(basis)}, n) coefficient limbs, not a stack or "
            f"limbs shaped {coeffs.shape}")
    t = _garner_table(basis)
    size = len(basis)
    acc = np.zeros_like(coeffs)         # row j: sum_{k<i} d_k P_k mod q_j
    bound = 1                           # every row of acc is below bound*q_j
    digits = np.empty(coeffs.shape, dtype=np.int64)
    for i, pm in enumerate(basis):
        q = U64(pm.q)
        u = coeffs[i]
        if i:
            u = shoup_mul(mod_sub(u, acc[i] % q, pm), t.inv[i],
                          t.inv_shoup[i], pm)
        neg = u > q // U64(2)
        np.subtract(u.view(np.int64), neg * np.int64(pm.q), out=digits[i])
        if i + 1 == size:
            break
        rest = slice(i + 1, size)
        if bound + 3 > t.room:
            acc[rest] %= t.q_col[rest]
            bound = 1
        # Every later row at once: a lazy product below 2 q_j plus a
        # correction below q_j.
        acc[rest] += shoup_mul_lazy(u, t.radix[i, rest], t.radix_shoup[i, rest],
                                    t.q_col[rest], small=pm.q <= SMALL_WORD)
        acc[rest] += neg * t.wrap[i, rest]
        bound += 3
        if all(np.array_equal(acc[j] % t.q_col[j], coeffs[j])
               for j in range(i + 1, size)):
            break
    top = i
    vh, vl = _split_int(digits[top])
    for i in range(top - 1, -1, -1):
        q_hi, q_lo, q_hh, q_hl = t.split[i]
        dh, dl = _split_int(digits[i])
        # (vh + vl) * q + d with the product error of vh * q_hi exact.
        prod = vh * q_hi
        ah, al = _dekker(vh)
        err = ((ah * q_hh - prod) + ah * q_hl + al * q_hh) + al * q_hl
        err += vh * q_lo + vl * q_hi
        s, f = _two_sum(prod, dh)
        f += err
        f += dl
        vh = s + f
        vl = f - (vh - s)
    return vh


def _split_int(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed words below 2^62 as exact float pairs hi + lo."""
    hi = d.astype(np.float64)
    return hi, (d - hi.astype(np.int64)).astype(np.float64)
