"""RNS-CKKS scheme: parameters, keys, encoding, and homomorphic operators.

Levels count remaining rescales: a level-l ciphertext lives over the first
l+1 primes of the modulus chain, level 0 over the base prime alone.  A
ciphertext is one eval-rep stack, limbs shaped (l+1, 2, N), c0 beside c1
under each prime; its level, like a plaintext's, is read from the basis.
Scales are tracked as exact rationals; operators enforce exact scale
equality for additive mixing and leave rescaling to the caller.  Keys and
plaintexts are eval-rep too, the one representation of `rnspoly`, so
the `serial` containers write every block's rep byte as the constant 1.

Key-switching uses one fixed full-level key per switched element and runs
three steps.  `mod_up` cuts the switched polynomial into digit pieces of
alpha limbs and takes each through `rnspoly.convert_limbs` into the rest
of the current basis plus the auxiliary primes; `key_product` multiplies
the pieces by the key pairs there; `mod_down` runs the same conversion
once over the stack of both halves that the ciphertext keeps: dnum_l + 2
polynomials, as `costmodel.keyswitch_mults` counts.  The gadget constants
T_i = P * (Q/Q_i) * ((Q/Q_i)^{-1} mod Q_i) make every base-extension slack
term vanish modulo the working modulus at every level, so one key serves
all levels.  The bootstrap's raise is a `mod_up` of one piece, q0.

A generated key keeps only its b_i halves resident.  Each a_i is drawn
from the caller's generator as before and b_i is formed with it, but the
key then holds the generator's snapshot from before the draw
(`UniformSeed`) in place of a_i's limbs; a_i is made again when a switch
reads the piece (`EvaluationKey.piece`).  The replay gives the drawn
words, so keys, ciphertexts and containers are the same bit for bit.
Containers store the full a_i: the snapshot replays numpy's
`Generator.integers`, which holds only within one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .embedding import packed_to_slots, slots_to_packed
from .errors import (BasisMismatchError, ConfigurationError,
                     LevelExhaustedError, MissingKeyError, RepresentationError,
                     ScaleMismatchError)
from .modmath import (U64, PrimeModulus, generate_ntt_primes, mod_sub,
                      mul_sum, shoup_mul, shoup_words)
from .rnspoly import (LimbBasis, RnsPolynomial, automorphism, convert_limbs,
                      crt_float, lift_int_coeffs, one_poly, project, rp_add,
                      rp_mul, rp_mul_sum, rp_neg, rp_scalar_mul_per_limb,
                      rp_sub, transform_limbs)


@dataclass(frozen=True)
class NoiseBudgets:
    """Accepted relative error per operation class, used as test gates:
    one set, the class constant `CkksParams.budgets`, not a parameter."""

    fresh: float = 2.0 ** -20
    multiply: float = 2.0 ** -12
    rotate_factor: float = 2.0      # grouped rotations vs. one-step baseline
    bootstrap: float = 2.0 ** -8


@dataclass(frozen=True)
class CkksParams:
    """Ring, chain, and noise configuration.

    Defaults give a desk-scale instance: ring degree 2^13, 64 message
    slots, 7 rescale levels over 40-bit primes under a 59-bit base, and
    four 60-bit auxiliary primes (two digit pieces at the top level).
    Every init field is a parameter `serial.write_params` writes; the
    noise gates `budgets` are one class constant, not a parameter.

    This class owns the digit rule: alpha must divide levels + 1, so the
    top level splits into dnum = (levels + 1) / alpha whole digit pieces.
    A prime q = 1 (mod 2N) exceeds 2N, so narrower widths are refused,
    and so is a width with too few such primes for the chain.

    P, the product of the alpha auxiliary primes, must cover the largest
    digit piece Q_piece, the one that holds q0: hybrid key switching
    leaves a slot error of about dnum N sigma Q_piece / (P scale)
    (Han-Ki, CT-RSA 2020), which a rotation shows in full.  In bit widths,
    with Q_piece < 2^(q0_bits + (alpha - 1) scale_bits) and
    P >= 2^(alpha (aux_bits - 1)), parameters whose bound passes
    `budgets.fresh` are refused.  The bound is 2^-81 at the defaults and
    2^-29 at `aux_bits` 47; it refuses `aux_bits` 44 (a rotation measured
    2.9e-7 off), 42 (7.4e-5) and alpha 1 at 45 (4.1e-4), erring 4 to 4.5
    bits toward refusing.
    """

    n_ring: int = 8192
    n_slots: int = 64
    levels: int = 7
    alpha: int = 4
    scale_bits: int = 40
    q0_bits: int = 59
    aux_bits: int = 60
    sigma: float = 3.2
    budgets: ClassVar[NoiseBudgets] = NoiseBudgets()

    def __post_init__(self):
        for name in ("n_ring", "n_slots"):
            v = getattr(self, name)
            if v < 2 or v & (v - 1):
                raise ConfigurationError(f"{name} must be a power of two >= 2")
        if self.n_slots > self.n_ring // 2:
            raise ConfigurationError("n_slots cannot exceed n_ring / 2")
        if self.levels < 1 or self.alpha < 1:
            raise ConfigurationError("need at least one level and one aux prime")
        if (self.levels + 1) % self.alpha:
            raise ConfigurationError(f"alpha {self.alpha} does not divide "
                                     f"levels + 1 = {self.levels + 1}")
        least = self.n_ring.bit_length()    # every NTT prime exceeds 2N
        if not (least < self.scale_bits < self.q0_bits <= 60
                and least < self.aux_bits <= 60):
            raise ConfigurationError("prime widths out of range")
        # Error samples are rounded to int64: a NaN or infinite width rounds
        # every sample to INT64_MIN, and past 2^52 a sample some thousand
        # widths out would leave int64 too.
        if not 0 <= self.sigma < 2.0 ** 52:
            raise ConfigurationError(
                f"sigma must be finite, >= 0 and below 2^52, got {self.sigma}")
        piece_bits = self.q0_bits + self.scale_bits * (self.alpha - 1)
        p_bits = self.alpha * (self.aux_bits - 1)
        noise = Fraction(self.sigma) * self.dnum * self.n_ring
        if noise * 2 ** piece_bits > Fraction(self.budgets.fresh) * 2 ** (
                p_bits + self.scale_bits):
            raise ConfigurationError(
                f"auxiliary modulus of {p_bits}+ bits is too small for a "
                f"{piece_bits}-bit digit piece: key-switch noise would pass "
                f"budgets.fresh")
        _chains(self)       # refuses widths too narrow for enough primes

    @property
    def scale(self) -> int:
        return 1 << self.scale_bits

    @property
    def dnum(self) -> int:
        return (self.levels + 1) // self.alpha


@lru_cache(maxsize=None)
def _chains(params: CkksParams) -> tuple[tuple[PrimeModulus, ...],
                                         tuple[PrimeModulus, ...]]:
    two_n = 2 * params.n_ring
    base = generate_ntt_primes(params.q0_bits, 1, two_n)
    scale = generate_ntt_primes(params.scale_bits, params.levels, two_n,
                                skip=tuple(base))
    aux = generate_ntt_primes(params.aux_bits, params.alpha, two_n,
                              skip=tuple(base + scale))
    mods = tuple(PrimeModulus(q, two_n) for q in base + scale)
    auxm = tuple(PrimeModulus(q, two_n) for q in aux)
    return mods, auxm


def modulus_chain(params: CkksParams) -> tuple[PrimeModulus, ...]:
    return _chains(params)[0]


def aux_chain(params: CkksParams) -> tuple[PrimeModulus, ...]:
    return _chains(params)[1]


def basis_c(params: CkksParams, level: int) -> LimbBasis:
    if not 0 <= level <= params.levels:
        raise LevelExhaustedError(f"level {level} outside [0, {params.levels}]")
    return LimbBasis(modulus_chain(params)[:level + 1])


def basis_b(params: CkksParams) -> LimbBasis:
    return LimbBasis(aux_chain(params))


def basis_d(params: CkksParams, level: int) -> LimbBasis:
    return basis_c(params, level).concat(basis_b(params))


# ---------------------------------------------------------------------------
# Keys and text objects.

@dataclass
class SecretKey:
    poly: RnsPolynomial          # eval rep over the full basis C_L + B


@dataclass
class Plaintext:
    """An encoded slot vector.  `poly` is eval rep over C_level and holds
    one period of its evaluation words: an encode of m slots holds 2m
    words per limb (`encode_diagonal_batch`), a decryption all N.

    `slots` is the message's period n: the n_ring/2 slot values repeat
    every n places, so the message lies in Z[X^(N/2n)].  `decode` folds
    `poly` to the 2n words of that projection and returns n values."""

    poly: RnsPolynomial
    scale: Fraction
    slots: int

    level = property(lambda self: len(self.poly.basis) - 1)


@dataclass
class Ciphertext:
    """An encrypted slot vector: `poly` is the eval-rep (L, 2, N) stack of
    c0 and c1 over C_level, and `slots` the period of the message, as in
    `Plaintext`.  A sum or product of messages of periods 2^a and 2^b has
    period 2^max(a, b), so the binary operators keep the larger count."""

    poly: RnsPolynomial
    scale: Fraction
    slots: int

    def __post_init__(self):
        if self.poly.limbs.shape[1:-1] != (2,) \
                or self.poly.n != self.poly.basis.ring_degree:
            raise RepresentationError("a ciphertext is an eval-rep (L, 2, N)"
                                      f" stack, not {self.poly.limbs.shape}")

    level = Plaintext.level
    c0 = property(lambda self: _half(self.poly, 0))
    c1 = property(lambda self: _half(self.poly, 1))


def _half(stack: RnsPolynomial, h: int) -> RnsPolynomial:
    """Half h of an (L, 2, N) stack as a read-only view."""
    limbs = stack.limbs[:, h]
    limbs.flags.writeable = False
    return RnsPolynomial(stack.basis, limbs)


def _add_into(stack: RnsPolynomial, h: int, p: RnsPolynomial):
    """Add p into half h of the (L, 2, N) stack, in place."""
    stack.limbs[:, h] = rp_add(_half(stack, h), p).limbs


@dataclass(frozen=True)
class UniformSeed:
    """A uniform polynomial as the generator snapshot it was drawn from:
    `expand` replays `sample_uniform` over `basis` at ring degree `n` from
    a fresh bit generator of class `generator` put in `state`, so it gives
    the drawn words again, within the process that drew them."""

    basis: LimbBasis
    n: int
    generator: type              # the caller's bit-generator class
    state: dict                  # its `.state` before the draw

    def expand(self) -> RnsPolynomial:
        bits = self.generator()
        bits.state = self.state
        return sample_uniform(self.basis, self.n, np.random.Generator(bits))


@dataclass
class EvaluationKey:
    """Switching key for one secret: digit-piece pairs (b_i, a_i) over
    C_L + B, b_i = -a_i s + e_i + T_i * target.  The step names the
    target: s^2 at 0, the automorphism of s by r at step r.

    A generated key keeps only b_i resident; a_i, the uniform half, stays
    the `UniformSeed` it was drawn from and is made when a switch reads
    the piece (`piece`).  So `key_product` expands the pieces it uses on
    each call, and `hdft.hdft_apply` expands each key once per stage
    (`expanded`) and drops the copy when the stage is done.  A key read
    from a container holds a_i's limbs, which `piece` returns as they
    are.  Containers keep the full a_i because a seed replays numpy's
    `Generator.integers` and is valid only in the process that drew it.
    """

    step: int                    # rotation amount; 0 for relinearization
    pieces: tuple[tuple[RnsPolynomial, RnsPolynomial | UniformSeed], ...]

    def piece(self, i: int) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Digit piece i with a_i as limbs, expanded if it is a seed."""
        b, a = self.pieces[i]
        return b, a.expand() if isinstance(a, UniformSeed) else a

    def expanded(self) -> EvaluationKey:
        """The same key with every a_i as limbs."""
        return EvaluationKey(self.step, tuple(
            self.piece(i) for i in range(len(self.pieces))))


def restrict_poly(p: RnsPolynomial, basis: LimbBasis) -> RnsPolynomial:
    """Select the limb rows of `basis` out of a wider polynomial or stack."""
    pos = {pm.q: i for i, pm in enumerate(p.basis)}
    try:
        rows = [pos[pm.q] for pm in basis]
    except KeyError as e:
        raise BasisMismatchError(f"prime {e} not present in source basis")
    return RnsPolynomial(basis, p.limbs[rows])


# ---------------------------------------------------------------------------
# Sampling.

def sample_ternary(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1, 2, n, dtype=np.int64)


def sample_error(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    return np.rint(rng.normal(0.0, sigma, n)).astype(np.int64)


def sample_uniform(basis: LimbBasis, n: int,
                   rng: np.random.Generator) -> RnsPolynomial:
    limbs = np.empty((len(basis), n), dtype=U64)
    for i, pm in enumerate(basis):
        limbs[i] = rng.integers(0, pm.q, n, dtype=np.uint64)
    return RnsPolynomial(basis, limbs)


def keygen(params: CkksParams, rng: np.random.Generator) -> SecretKey:
    basis = basis_d(params, params.levels)
    s = sample_ternary(rng, params.n_ring)
    return SecretKey(RnsPolynomial(basis, lift_int_coeffs(s, basis)))


@lru_cache(maxsize=None)
def _gadget_constants(params: CkksParams, i: int) -> dict[int, int]:
    """T_i mod each prime of C_L + B for digit piece i."""
    chain = modulus_chain(params)
    big_q = basis_c(params, params.levels).modulus
    q_i = LimbBasis(chain[i * params.alpha:(i + 1) * params.alpha]).modulus
    big_p = basis_b(params).modulus
    q_hat = big_q // q_i
    t_i = big_p * q_hat * pow(q_hat % q_i, -1, q_i)
    return {pm.q: t_i % pm.q for pm in chain + aux_chain(params)}


def _make_switch_key(params: CkksParams, sk: SecretKey,
                     target: RnsPolynomial, rng: np.random.Generator,
                     step: int) -> EvaluationKey:
    """Key pairs (b_i, a_i) with b_i = -a_i s + e_i + T_i * target; each
    a_i is drawn from `rng` and kept as the `UniformSeed` of that draw."""
    full = basis_d(params, params.levels)
    pieces = []
    for i in range(params.dnum):
        seed = UniformSeed(full, params.n_ring, type(rng.bit_generator),
                           rng.bit_generator.state)
        a_i = sample_uniform(full, params.n_ring, rng)
        e_i = RnsPolynomial(full, lift_int_coeffs(
            sample_error(rng, params.n_ring, params.sigma), full))
        masked = rp_scalar_mul_per_limb(target, _gadget_constants(params, i))
        b_i = rp_sub(rp_add(e_i, masked), rp_mul(a_i, sk.poly))
        pieces.append((b_i, seed))
    return EvaluationKey(step=step, pieces=tuple(pieces))


def make_relin_key(params: CkksParams, sk: SecretKey,
                   rng: np.random.Generator) -> EvaluationKey:
    s_sq = rp_mul(sk.poly, sk.poly)
    return _make_switch_key(params, sk, s_sq, rng, 0)


def normalize_step(params: CkksParams, r: int) -> int:
    return r % (params.n_ring // 2)


def make_rotation_key(params: CkksParams, sk: SecretKey, r: int,
                      rng: np.random.Generator) -> EvaluationKey:
    r = normalize_step(params, r)
    if r == 0:
        raise ConfigurationError("rotation by zero needs no key")
    s_rot = automorphism(sk.poly, r)
    return _make_switch_key(params, sk, s_rot, rng, r)


def make_rotation_keys(params: CkksParams, sk: SecretKey, steps,
                       rng: np.random.Generator) -> dict[int, EvaluationKey]:
    out = {}
    for r in steps:
        r = normalize_step(params, r)
        if r and r not in out:
            out[r] = make_rotation_key(params, sk, r, rng)
    return out


# ---------------------------------------------------------------------------
# Encoding.

def slots_to_coeffs(rows, scale: int | Fraction) -> np.ndarray:
    """Slot vectors shaped (..., m) as the rounded coefficients of their
    scaled packed embedding, shaped (..., 2m): real parts, then imaginary.

    Every plaintext built from slot values is rounded here, so each one
    rejects the same inputs: a zero scale, which no decode can divide out,
    non-finite values, and coefficients that a signed 64-bit word reduced
    per limb cannot carry.
    """
    if scale == 0:
        raise ConfigurationError("scale must be nonzero")
    packed = slots_to_packed(rows)
    coeffs = np.concatenate([np.rint(packed.real * float(scale)),
                             np.rint(packed.imag * float(scale))], axis=-1)
    if not np.all(np.isfinite(coeffs)):
        raise ConfigurationError("encoded coefficients are not finite")
    if np.any(np.abs(coeffs) >= 2.0 ** 62):
        raise ConfigurationError("encoded coefficients overflow 62 bits")
    return coeffs.astype(np.int64)


def encode(params: CkksParams, values, level: int | None = None,
           scale: int | Fraction | None = None) -> Plaintext:
    """Embed a vector of m slots, m dividing n_ring/2, as a scaled integer
    polynomial: the one-row case of `encode_diagonal_batch`."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1:
        raise ConfigurationError("encode expects one vector")
    level = params.levels if level is None else level
    return encode_diagonal_batch(params, values[None], level, scale)[0]


def decode(params: CkksParams, pt: Plaintext) -> np.ndarray:
    """The n = `pt.slots` slot values of the projection of `pt.poly` onto
    Z[X^(N/2n)], the subring a message of period n lies in.

    `rnspoly.project` folds the N evaluation words of each limb to the
    m = 2n words of that projection, exactly, and their m-point inverse
    transform is its stride coefficients c[i N/m] mod each prime, word
    for word those of the exact lift; `crt_float` lifts those m.  A
    polynomial of the subring has n-periodic slots, and the packed
    n-point embedding of its stride coefficients is one period of them.
    The projection drops the noise off the stride, as a sparse-slot
    decoder does.  At n = N/2 the fold is the identity, so a full-width
    decode runs on all N words.  Raises `ConfigurationError` when 2n does
    not divide n_ring and `BasisMismatchError` when the rows do not tile
    2n words.
    """
    n = pt.slots
    proj = project(pt.poly, 2 * n)
    coeffs = crt_float(transform_limbs(proj.limbs, proj.basis, "inverse"),
                       proj.basis)
    return packed_to_slots((coeffs[:n] + 1j * coeffs[n:]) / float(pt.scale))


def encode_diagonal_batch(params: CkksParams, rows: np.ndarray, level: int,
                          scale: int | Fraction | None = None) -> list[Plaintext]:
    """Encode rows of m slots, shaped (R, m) with m dividing n_ring/2, in
    one batched transform and one lift; each plaintext has m slots.

    A row stands for its n_ring/(2m) repeats across the slot space.  The
    m-point embedding of the row gives 2m coefficients, and those are the
    coefficients of the repeats' N/2-point embedding at stride N/(2m),
    bit for bit, with zeros between them: the two runs differ only by
    powers of two.  So a row of 2m coefficients is an element of
    Z[X^(N/2m)], and its 2m-point lift is one period of the N-point one
    (`rnspoly.lift_int_coeffs`).  Each plaintext's limbs are a view of
    the one lifted (L, R, 2m) stack, one period per limb, which the
    arithmetic broadcasts.
    """
    scale = Fraction(params.scale if scale is None else scale)
    rows = np.asarray(rows, dtype=np.complex128)
    half = params.n_ring // 2
    if rows.ndim != 2 or rows.shape[1] < 1 or half % rows.shape[1]:
        raise ConfigurationError(
            f"slot rows {rows.shape} must be (R, m), m dividing {half}")
    basis = basis_c(params, level)
    stacks = lift_int_coeffs(slots_to_coeffs(rows, scale), basis)
    return [Plaintext(poly=RnsPolynomial(basis, stacks[:, r]),
                      scale=scale, slots=rows.shape[1])
            for r in range(rows.shape[0])]


# ---------------------------------------------------------------------------
# Encryption.

def encrypt(params: CkksParams, pt: Plaintext, sk: SecretKey,
            rng: np.random.Generator) -> Ciphertext:
    basis = basis_c(params, pt.level)
    a = sample_uniform(basis, params.n_ring, rng)
    e = RnsPolynomial(basis, lift_int_coeffs(
        sample_error(rng, params.n_ring, params.sigma), basis))
    s = restrict_poly(sk.poly, basis)
    limbs = np.empty((len(basis), 2, params.n_ring), dtype=U64)
    limbs[:, 0] = rp_add(rp_sub(e, rp_mul(a, s)), pt.poly).limbs
    limbs[:, 1] = a.limbs
    return Ciphertext(RnsPolynomial(basis, limbs), pt.scale, pt.slots)


def decrypt(params: CkksParams, ct: Ciphertext, sk: SecretKey) -> Plaintext:
    s = restrict_poly(sk.poly, ct.poly.basis)
    return Plaintext(rp_add(ct.c0, rp_mul(ct.c1, s)), ct.scale, ct.slots)


def slot_values(params: CkksParams, ct: Ciphertext, sk: SecretKey) -> np.ndarray:
    return decode(params, decrypt(params, ct, sk))


# ---------------------------------------------------------------------------
# Arithmetic.

def _check_scale(a, b):
    """One scale; the rp operation refuses different bases (levels)."""
    if a.scale != b.scale:
        raise ScaleMismatchError(f"scales differ: {a.scale} vs {b.scale}")


def hadd(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    _check_scale(a, b)
    return Ciphertext(rp_add(a.poly, b.poly), a.scale, max(a.slots, b.slots))


def hsub(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    _check_scale(a, b)
    return Ciphertext(rp_sub(a.poly, b.poly), a.scale, max(a.slots, b.slots))


def hneg(a: Ciphertext) -> Ciphertext:
    return Ciphertext(rp_neg(a.poly), a.scale, a.slots)


def padd(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    _check_scale(ct, pt)
    poly = RnsPolynomial(ct.poly.basis, ct.poly.limbs.copy())
    _add_into(poly, 0, pt.poly)
    return Ciphertext(poly, ct.scale, max(ct.slots, pt.slots))


def pmult(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    return Ciphertext(rp_mul(ct.poly, pt.poly), ct.scale * pt.scale,
                      max(ct.slots, pt.slots))


def cadd(params: CkksParams, ct: Ciphertext, z: complex) -> Ciphertext:
    """Add z in every slot: z encoded as one slot, the two-term polynomial
    round(x*s) + round(y*s) X^(N/2) for z = x + iy."""
    return padd(ct, encode(params, [z], ct.level, ct.scale))


def cmult(params: CkksParams, ct: Ciphertext, z: complex,
          scale: int | Fraction | None = None) -> Ciphertext:
    """Multiply every slot by z, encoded as `cadd` encodes it."""
    return pmult(ct, encode(params, [z], ct.level, scale))


# ---------------------------------------------------------------------------
# Key switching and the operators built on it.

@lru_cache(maxsize=None)
def _drop_inverses(kept: LimbBasis,
                   dropped: LimbBasis) -> tuple[np.ndarray, np.ndarray]:
    """D^{-1} mod each kept prime, D the product of the dropped primes, with
    Shoup companions."""
    d = dropped.modulus
    return shoup_words([pow(d % q, -1, q) for q in kept.qs], kept.qs)


def mod_down(limbs: np.ndarray, kept: LimbBasis,
             dropped: LimbBasis) -> np.ndarray:
    """(x - [x]_D) / D over `kept`, for eval-rep limbs of x over
    kept + dropped shaped (L, ..., N), D the product of the dropped primes;
    returns eval-rep limbs shaped (len(kept), ..., N).

    The dropped rows go through one `convert_limbs` into `kept`, are
    subtracted, and the difference is multiplied by D^{-1}.  The centered
    conversion may add k * D with |k| <= ceil(|dropped| / 2); from one
    prime it is the centered lift itself, so the rescale rounds to within
    half a unit.  Key switching drops the auxiliary primes B, rescale
    drops q_l; a stack of polynomials shares each prime's transforms.
    """
    corr = convert_limbs(limbs[len(kept):], dropped, kept)
    inv, inv_shoup = _drop_inverses(kept, dropped)
    for i, pm in enumerate(kept):
        corr[i] = shoup_mul(mod_sub(limbs[i], corr[i], pm), inv[i],
                            inv_shoup[i], pm)
    return corr


def mod_up(limbs: np.ndarray, basis: LimbBasis, alpha: int) -> np.ndarray:
    """ModUp: eval-rep limbs shaped (S, ..., N) over basis[:S], cut into
    digit pieces of `alpha` rows, as limbs over all of `basis` shaped
    (len(basis), pieces, ..., N).  Each piece keeps its own rows as they
    are; its other rows come from one centered `convert_limbs` of the
    piece, from one prime its centered lift."""
    s = len(limbs)
    ext = np.empty((len(basis), -(-s // alpha)) + limbs.shape[1:], dtype=U64)
    for i, lo in enumerate(range(0, s, alpha)):
        hi = min(lo + alpha, s)
        rest = LimbBasis(basis.primes[:lo] + basis.primes[hi:])
        conv = convert_limbs(limbs[lo:hi], LimbBasis(basis.primes[lo:hi]),
                             rest)
        ext[:lo, i], ext[lo:hi, i], ext[hi:, i] = (conv[:lo], limbs[lo:hi],
                                                   conv[lo:])
    return ext


def key_product(params: CkksParams, ext: np.ndarray,
                evk: EvaluationKey) -> np.ndarray:
    """A ModUp stack over C_level + B, (L, pieces, N), times the key pairs
    into (L, 2, N), one reduction per word, so that one ModDown sheds B
    from both halves.  The one reader of a key's rows and seeds: a key
    with another piece count, or a half over a basis other than C_L + B
    (made for other parameters), is refused before a seed is expanded."""
    full = basis_d(params, params.levels)
    if len(evk.pieces) != params.dnum or any(
            half.basis != full for piece in evk.pieces for half in piece):
        raise BasisMismatchError("switching key was made for other parameters")
    level = len(ext) - params.alpha - 1
    pieces = [evk.piece(i) for i in range(ext.shape[1])]
    acc = np.empty((len(ext), 2, params.n_ring), dtype=U64)
    for r, pm in enumerate(basis_d(params, level)):
        kr = r if r <= level else r + params.levels - level  # B after C_L
        for half in (0, 1):
            acc[r, half] = mul_sum([(ext[r, i], b_a[half].limbs[kr])
                                    for i, b_a in enumerate(pieces)], pm)
    return acc


def key_switch(params: CkksParams, d: RnsPolynomial,
               evk: EvaluationKey) -> RnsPolynomial:
    """Switch the secret under `d` (one eval-rep polynomial over C_level)
    using `evk`, into the (L, 2, N) stack of the two switched halves:
    `mod_down(key_product(mod_up(d)))`, the ModUp stack freed first."""
    level = len(d.basis) - 1
    c_basis = basis_c(params, level)
    if d.basis != c_basis:
        raise BasisMismatchError("switched polynomial is not over C_level")
    one_poly(d)
    acc = key_product(params, mod_up(d.widened().limbs,
                                     basis_d(params, level), params.alpha),
                      evk)
    return RnsPolynomial(c_basis, mod_down(acc, c_basis, basis_b(params)))


def hmult(params: CkksParams, a: Ciphertext, b: Ciphertext,
          evk: EvaluationKey) -> Ciphertext:
    if evk.step != 0:
        raise MissingKeyError("relinearization key required")
    # The other products come after, so only c1 * c1' is held through it.
    out = key_switch(params, rp_mul(a.c1, b.c1), evk)
    _add_into(out, 0, rp_mul(a.c0, b.c0))
    _add_into(out, 1, rp_mul_sum([(a.c0, b.c1), (a.c1, b.c0)]))
    return Ciphertext(out, a.scale * b.scale, max(a.slots, b.slots))


def hrot(params: CkksParams, ct: Ciphertext, r: int,
         evk: EvaluationKey) -> Ciphertext:
    """Rotate slot contents left by r places."""
    r = normalize_step(params, r)
    if r == 0:
        return ct
    if evk.step != r:
        raise MissingKeyError(f"no rotation key for step {r}")
    # c0 is rotated after, so only the rotated c1 is held through it.
    out = key_switch(params, automorphism(ct.c1, r), evk)
    _add_into(out, 0, automorphism(ct.c0, r))
    return Ciphertext(out, ct.scale, ct.slots)


def hrescale(params: CkksParams, ct: Ciphertext) -> Ciphertext:
    """Divide by q_level and round: a ModDown from the one top prime, l + 1
    limb transforms per polynomial, as `costmodel.rescale_mults` counts."""
    if ct.level == 0:
        raise LevelExhaustedError("cannot rescale below the base prime")
    kept = basis_c(params, ct.level - 1)
    dropped = LimbBasis(modulus_chain(params)[ct.level:ct.level + 1])
    out = mod_down(ct.poly.limbs, kept, dropped)
    return Ciphertext(RnsPolynomial(kept, out),
                      ct.scale / dropped.modulus, ct.slots)


def mod_drop(params: CkksParams, ct: Ciphertext, level: int) -> Ciphertext:
    """Forget limbs above `level`; scale and plaintext are unchanged."""
    if level > ct.level:
        raise LevelExhaustedError(f"cannot raise {ct.level} to {level}")
    return Ciphertext(restrict_poly(ct.poly, basis_c(params, level)),
                      ct.scale, ct.slots)
