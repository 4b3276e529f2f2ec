"""RNS polynomials, fast base conversion, and Galois automorphisms.

A polynomial in Z_Q[X]/(X^N + 1) with Q = q_0 ... q_l is held as an
(l+1) x N uint64 matrix of per-prime residue limbs, in either coefficient
or evaluation (NTT) representation.  Base conversion follows the textbook
approximate form: out_i = sum_j ([P]_{p_j} * phat_j^{-1} mod p_j) * phat_j
mod q_i, read with signed step-1 residues, which may add an integer
multiple k * P_src, |k| <= ceil(|source| / 2); callers rely on that slack
being annihilated downstream (key-switching) or bounded (ModDown).
From a single prime there is no slack.

Several polynomials over one basis stack as limbs shaped (L, ..., N): the
leading axis is the prime, so each prime's rows sit together and
`transform_limbs` runs them through one `ntt` call (in cache-sized
blocks) instead of one call per row.  Key switching, rescale and the
integer lift pass their same-prime rows this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BasisMismatchError, ConfigurationError, RepresentationError
from .modmath import (SMALL_WORD, U64, PrimeModulus, barrett_mul, mod_add,
                      mod_neg, mod_sub, mul_sum, shoup_mul, shoup_mul_lazy,
                      shoup_words)
from .ntt import ntt

COEFF = "coeff"
EVAL = "eval"


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


@dataclass
class RnsPolynomial:
    """Residue-limb matrix plus its basis and representation tag."""

    basis: LimbBasis
    rep: str
    limbs: np.ndarray        # shape (len(basis), N), dtype uint64

    def __post_init__(self):
        if self.limbs.ndim != 2 or self.limbs.shape[0] != len(self.basis):
            raise BasisMismatchError(
                f"limb matrix {self.limbs.shape} does not match basis "
                f"of {len(self.basis)} primes")
        if self.rep not in (COEFF, EVAL):
            raise RepresentationError(f"unknown representation {self.rep!r}")

    @property
    def n(self) -> int:
        return self.limbs.shape[1]

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.rep, self.limbs.copy())

    def to_eval(self) -> "RnsPolynomial":
        if self.rep == EVAL:
            return self
        return RnsPolynomial(self.basis, EVAL,
                             transform_limbs(self.limbs, self.basis, "forward"))

    def to_coeff(self) -> "RnsPolynomial":
        if self.rep == COEFF:
            return self
        return RnsPolynomial(self.basis, COEFF,
                             transform_limbs(self.limbs, self.basis, "inverse"))


def transform_limbs(limbs: np.ndarray, basis: LimbBasis, direction: str,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Limbs shaped (L, ..., N) over `basis` through the negacyclic NTT in
    `direction`, one `ntt` call per prime over all of that prime's rows.
    Writes into `out` (which may be `limbs`) or a new array."""
    out = np.empty(limbs.shape, dtype=U64) if out is None else out
    for i, p in enumerate(basis):
        ntt(limbs[i], p, direction, out=out[i])
    return out


def _int_residues(coeffs, basis: LimbBasis) -> np.ndarray:
    """Signed int64 coefficients shaped (..., N) reduced into every prime:
    uint64 limbs shaped (L, ..., N)."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.empty((len(basis),) + coeffs.shape, dtype=U64)
    for i, p in enumerate(basis):
        np.remainder(coeffs, np.int64(p.q), out=out[i].view(np.int64))
    return out


def lift_int_coeffs(coeffs, basis: LimbBasis) -> np.ndarray:
    """Signed int64 coefficients shaped (N,) or (R, N) as evaluation-rep
    limbs shaped (L, N) or (L, R, N).

    Every integer plaintext enters the evaluation domain here: encoding
    and OF-Limb seed extension share this lift, so a seed rebuilds exactly
    the words full precomputation stores.
    """
    out = _int_residues(coeffs, basis)
    return transform_limbs(out, basis, "forward", out=out)


def poly_from_int_coeffs(coeffs: np.ndarray, basis: LimbBasis,
                         rep: str = COEFF) -> RnsPolynomial:
    """Reduce signed word-sized integer coefficients into every limb."""
    if rep == EVAL:
        return RnsPolynomial(basis, EVAL, lift_int_coeffs(coeffs, basis))
    return RnsPolynomial(basis, COEFF, _int_residues(coeffs, basis))


def _check_pair(a: RnsPolynomial, b: RnsPolynomial):
    if a.basis != b.basis:
        raise BasisMismatchError("operands live over different bases")
    if a.rep != b.rep:
        raise RepresentationError(f"operands mix {a.rep} and {b.rep}")


def rp_add(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    _check_pair(a, b)
    out = np.empty_like(a.limbs)
    for i, p in enumerate(a.basis):
        out[i] = mod_add(a.limbs[i], b.limbs[i], p)
    return RnsPolynomial(a.basis, a.rep, out)


def rp_sub(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    _check_pair(a, b)
    out = np.empty_like(a.limbs)
    for i, p in enumerate(a.basis):
        out[i] = mod_sub(a.limbs[i], b.limbs[i], p)
    return RnsPolynomial(a.basis, a.rep, out)


def rp_neg(a: RnsPolynomial) -> RnsPolynomial:
    out = np.empty_like(a.limbs)
    for i, p in enumerate(a.basis):
        out[i] = mod_neg(a.limbs[i], p)
    return RnsPolynomial(a.basis, a.rep, out)


def rp_mul(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    """Pointwise product; the multiply-accumulate path, Barrett reduced."""
    _check_pair(a, b)
    if a.rep != EVAL:
        raise RepresentationError("pointwise product needs evaluation rep")
    out = np.empty_like(a.limbs)
    for i, p in enumerate(a.basis):
        out[i] = barrett_mul(a.limbs[i], b.limbs[i], p)
    return RnsPolynomial(a.basis, a.rep, out)


def rp_mul_sum(pairs) -> RnsPolynomial:
    """sum_k a_k * b_k for (a_k, b_k) operand pairs over one basis, with one
    Barrett reduction per word instead of one per product."""
    pairs = list(pairs)
    for a, b in pairs:
        _check_pair(pairs[0][0], a)
        _check_pair(a, b)
    a0 = pairs[0][0]
    if a0.rep != EVAL:
        raise RepresentationError("pointwise product needs evaluation rep")
    out = np.empty_like(a0.limbs)
    for i, p in enumerate(a0.basis):
        out[i] = mul_sum([(a.limbs[i], b.limbs[i]) for a, b in pairs], p)
    return RnsPolynomial(a0.basis, a0.rep, out)


def rp_scalar_mul_per_limb(a: RnsPolynomial, scalars: dict[int, int]) -> RnsPolynomial:
    """Multiply limb of prime q by scalars[q]; used for exact-division tricks."""
    out = np.empty_like(a.limbs)
    for i, p in enumerate(a.basis):
        out[i] = barrett_mul(a.limbs[i], np.array(scalars[p.q] % p.q, dtype=U64), p)
    return RnsPolynomial(a.basis, a.rep, out)


# ---------------------------------------------------------------------------
# Fast base conversion.

@dataclass(frozen=True)
class BaseTable:
    """Precomputed factors for source -> target fast base conversion.

    `inv_factors[j]` is phat_j^{-1} mod p_j and `factors[i, j]` is
    phat_j mod q_i, where phat_j = prod_{k != j} p_k over the source
    primes; `src_mod[i]` is P_src mod q_i for the signed correction.
    Each array rides with its 64-bit reciprocal companion so conversions
    multiply via the fixed-operand fast path.
    """

    source: LimbBasis
    target: LimbBasis
    inv_factors: np.ndarray
    inv_shoup: np.ndarray
    factors: np.ndarray
    factors_shoup: np.ndarray
    src_mod: np.ndarray
    src_mod_shoup: np.ndarray

    def __post_init__(self):
        # Entries are recomputed the slow way (big-integer products) and
        # compared; a table built from a mismatched basis pair never ships.
        p_src = self.source.modulus
        for j, pj in enumerate(self.source):
            phat = p_src // pj.q
            want_inv = pow(phat % pj.q, -1, pj.q)
            if int(self.inv_factors[j]) != want_inv \
                    or int(self.inv_shoup[j]) != (want_inv << 64) // pj.q:
                raise ConfigurationError("base table inverse factor mismatch")
            for i, qi in enumerate(self.target):
                want = phat % qi.q
                if int(self.factors[i, j]) != want \
                        or int(self.factors_shoup[i, j]) != (want << 64) // qi.q:
                    raise ConfigurationError("base table factor mismatch")
        for i, qi in enumerate(self.target):
            want = p_src % qi.q
            if int(self.src_mod[i]) != want \
                    or int(self.src_mod_shoup[i]) != (want << 64) // qi.q:
                raise ConfigurationError("base table correction mismatch")


@lru_cache(maxsize=None)
def make_base_table(source: LimbBasis, target: LimbBasis) -> BaseTable:
    p_src = source.modulus
    inv = np.empty(len(source), dtype=U64)
    inv_sh = np.empty(len(source), dtype=U64)
    fac = np.empty((len(target), len(source)), dtype=U64)
    fac_sh = np.empty((len(target), len(source)), dtype=U64)
    src = np.empty(len(target), dtype=U64)
    src_sh = np.empty(len(target), dtype=U64)
    for j, pj in enumerate(source):
        phat = p_src // pj.q
        w = pow(phat % pj.q, -1, pj.q)
        inv[j], inv_sh[j] = w, (w << 64) // pj.q
        for i, qi in enumerate(target):
            w = phat % qi.q
            fac[i, j], fac_sh[i, j] = w, (w << 64) // qi.q
    for i, qi in enumerate(target):
        w = p_src % qi.q
        src[i], src_sh[i] = w, (w << 64) // qi.q
    return BaseTable(source=source, target=target,
                     inv_factors=inv, inv_shoup=inv_sh,
                     factors=fac, factors_shoup=fac_sh,
                     src_mod=src, src_mod_shoup=src_sh)


def _bconv_accumulate(v: np.ndarray, table: BaseTable, i: int) -> np.ndarray:
    """sum_j v[j] * factors[i, j] mod q_i, for v[j] < p_j."""
    qi = table.target.primes[i]
    q = U64(qi.q)
    # Lazy products stay below 2q_i, so partial sums fit 64 bits for
    # `room` terms.
    room = max(1, ((1 << 64) - 1) // (2 * qi.q - 1))
    acc = None
    for j, pj in enumerate(table.source):
        term = shoup_mul_lazy(v[j], table.factors[i, j],
                              table.factors_shoup[i, j], q,
                              small=pj.q <= SMALL_WORD)
        if acc is None:
            acc = term
        else:
            acc += term
        if (j + 1) % room == 0:
            acc %= q
    return acc % q


def base_convert(p: RnsPolynomial, table: BaseTable) -> RnsPolynomial:
    """Fast base conversion of a coefficient-representation polynomial.

    The step-1 residues are read as signed representatives: since
    v_j - b_j p_j with b_j = (v_j > p_j/2) shifts the sum by exactly
    (sum b_j) * P_src, one subtraction per target row converts the unsigned
    form; the leftover slack k * P_src then has |k| <= ceil(|source| / 2)
    and zero mean instead of a positive bias.
    """
    if p.rep != COEFF:
        raise RepresentationError("base conversion needs coefficient rep")
    if p.basis != table.source:
        raise BasisMismatchError("polynomial basis is not the table source")
    v = np.empty_like(p.limbs)
    borrow = np.zeros(p.n, dtype=U64)
    for j, pj in enumerate(table.source):
        v[j] = shoup_mul(p.limbs[j], table.inv_factors[j],
                         table.inv_shoup[j], pj, small=pj.q <= SMALL_WORD)
        borrow += v[j] > U64(pj.q // 2)

    out = np.empty((len(table.target), p.n), dtype=U64)
    for i, qi in enumerate(table.target):
        # borrow counts source primes, far below 2^48.
        shift = shoup_mul(borrow, table.src_mod[i], table.src_mod_shoup[i],
                          qi, small=True)
        out[i] = mod_sub(_bconv_accumulate(v, table, i), shift, qi)
    return RnsPolynomial(table.target, COEFF, out)


# ---------------------------------------------------------------------------
# Galois automorphisms X -> X^(5^r mod 2N).

@lru_cache(maxsize=None)
def _auto_maps(n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coeff target index, coeff sign-flip mask, eval source index) for psi_r."""
    exp5 = pow(5, r % (n // 2), 2 * n)
    i = np.arange(n, dtype=np.int64)
    e = (i * exp5) % (2 * n)
    coeff_tgt = e % n
    coeff_flip = e >= n
    j_out = np.arange(n, dtype=np.int64)
    e_src = ((2 * j_out + 1) * exp5) % (2 * n)
    eval_src = (e_src - 1) // 2
    return coeff_tgt, coeff_flip, eval_src


def automorphism(p: RnsPolynomial, r: int) -> RnsPolynomial:
    """Apply psi_r: X -> X^(5^r mod 2N), in either representation.

    Coefficient rep: a signed monomial permutation (negacyclic wraps flip
    sign).  Evaluation rep: a pure index permutation of the odd-exponent
    evaluation points.
    """
    coeff_tgt, coeff_flip, eval_src = _auto_maps(p.n, r)
    out = np.empty_like(p.limbs)
    if p.rep == COEFF:
        for i, pm in enumerate(p.basis):
            row = np.empty_like(p.limbs[i])
            vals = np.where(coeff_flip, mod_neg(p.limbs[i], pm), p.limbs[i])
            row[coeff_tgt] = vals
            out[i] = row
    else:
        out[:] = p.limbs[:, eval_src]
    return RnsPolynomial(p.basis, p.rep, out)


# ---------------------------------------------------------------------------
# CRT reconstruction (big-integer exact path).

def crt_reconstruct(p: RnsPolynomial, centered: bool = True) -> np.ndarray:
    """Exact coefficients as Python integers, centered in (-Q/2, Q/2]."""
    poly = p.to_coeff()
    big_q = poly.basis.modulus
    acc = np.zeros(poly.n, dtype=object)
    for i, pm in enumerate(poly.basis):
        q_hat = big_q // pm.q
        y = pow(q_hat % pm.q, -1, pm.q)
        t = barrett_mul(poly.limbs[i], np.array(y, dtype=U64), pm)
        acc += t.astype(object) * q_hat
    acc %= big_q
    if centered:
        acc = np.where(acc > big_q // 2, acc - big_q, acc)
    return acc


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


def crt_float(p: RnsPolynomial) -> np.ndarray:
    """Centered coefficients in (-Q/2, Q/2] as float64, without big integers.

    Garner's algorithm yields digits d_i in (-q_i/2, q_i/2] with
    x = d_0 + d_1 P_1 + d_2 P_2 + ..., P_i = q_0 ... q_{i-1}.  Every tail
    d_0 + ... + d_{i-1} P_{i-1} lies within P_i / 2, so these are the
    digits of the centered lift itself, and the top nonzero term carries at
    least half of |x|.  Horner's rule from the top digit then runs in
    double-double arithmetic (about 106 bits), so the result is x rounded
    to nearest unless x lies within about 2^-100 of a rounding midpoint;
    `crt_reconstruct` is the exact reference.
    """
    poly = p.to_coeff()
    t = _garner_table(poly.basis)
    size = len(poly.basis)
    acc = np.zeros_like(poly.limbs)     # row j: sum_{k<i} d_k P_k mod q_j
    bound = 1                           # every row of acc is below bound*q_j
    digits = np.empty(poly.limbs.shape, dtype=np.int64)
    for i, pm in enumerate(poly.basis):
        q = U64(pm.q)
        small = pm.q <= SMALL_WORD
        u = poly.limbs[i]
        if i:
            u = shoup_mul(mod_sub(u, acc[i] % q, pm), t.inv[i],
                          t.inv_shoup[i], pm, small=small)
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
                                    t.q_col[rest], small=small)
        acc[rest] += neg * t.wrap[i, rest]
        bound += 3
    vh, vl = _split_int(digits[-1])
    for i in range(size - 2, -1, -1):
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
