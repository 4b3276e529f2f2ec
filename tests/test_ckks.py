"""Leveled scheme operations, including a big-integer key-switch oracle."""

import hashlib
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (centered_mod, oracle_crt, oracle_negacyclic_big,
                     oracle_residues)
import rnsckks.ckks as ckks_module
from rnsckks.ckks import (Ciphertext, CkksParams, Plaintext, UniformSeed,
                          aux_chain, basis_b, basis_c, basis_d, cadd, cmult,
                          decode, decrypt, encode, encode_diagonal_batch,
                          encrypt, hadd, hmult, hneg, hrescale, hrot, hsub,
                          key_product, key_switch, keygen, make_relin_key,
                          make_rotation_key, make_rotation_keys, mod_down,
                          mod_drop, mod_up, modulus_chain, normalize_step,
                          padd, pmult, restrict_poly, sample_uniform,
                          slot_values, slots_to_coeffs)
from rnsckks.costmodel import (PROFILES, ParamProfile, keyswitch_mults,
                               rescale_mults)
from rnsckks.embedding import packed_to_slots
from rnsckks.errors import (BasisMismatchError, ConfigurationError,
                            LevelExhaustedError, MissingKeyError,
                            RepresentationError, ScaleMismatchError)
from rnsckks.rnspoly import (LimbBasis, RnsPolynomial, automorphism,
                             crt_float, crt_reconstruct, project, rp_mul,
                             transform_limbs)
from rnsckks.serial import (load_evaluation_key, read_params,
                            save_evaluation_key, write_params)


def random_message(params, rng):
    return (rng.uniform(-1, 1, params.n_slots)
            + 1j * rng.uniform(-1, 1, params.n_slots))


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


# ---------------------------------------------------------------------------
# Parameters and modulus chains.

def test_default_parameters():
    p = CkksParams()
    assert (p.n_ring, p.n_slots, p.levels, p.alpha) == (8192, 64, 7, 4)
    assert p.scale == 1 << 40
    assert p.dnum == 2


def test_digit_count_is_exact():
    p = CkksParams(n_ring=64, n_slots=4, levels=2, alpha=1)
    assert p.dnum == 3


@pytest.mark.parametrize("kwargs", [
    dict(n_ring=100),
    dict(n_slots=3),
    dict(n_slots=8192),
    dict(levels=0),
    dict(alpha=0),
    dict(scale_bits=59),
    dict(q0_bits=61),
    dict(aux_bits=61),
    # A NaN or infinite width rounds every error sample to INT64_MIN, and a
    # negative one fails inside numpy.
    *(dict(sigma=s) for s in (np.nan, np.inf, -np.inf, -1.0, 2.0 ** 60)),
    # P too small for the largest digit piece: a rotation 7e-5 to 2e10 off.
    *(dict(aux_bits=b) for b in (42, 40, 30)),
    dict(alpha=1, aux_bits=45),
    # A short last digit piece: alpha must divide levels + 1.
    dict(n_ring=64, n_slots=4, levels=5, alpha=4),
    dict(levels=7, alpha=3),
    dict(levels=7, alpha=9),
    dict(levels=6),
    # No prime q = 1 mod 2^14 has 14 bits or fewer; at -10^9 the noise
    # guard's 2 ** piece_bits underflows to 0.0, so only this check refuses.
    *(dict(scale_bits=b) for b in (-1, 0, 14, -10 ** 9)),
    # Wide enough, but too few 15-bit primes q = 1 mod 2^14 for the chain.
    dict(scale_bits=15),
])
def test_parameter_validation(kwargs):
    with pytest.raises(ConfigurationError):
        CkksParams(**kwargs)


def test_chain_widths_and_bases(params):
    chain = modulus_chain(params)
    aux = aux_chain(params)
    assert len(chain) == params.levels + 1
    assert chain[0].q.bit_length() == params.q0_bits
    assert all(pm.q.bit_length() == params.scale_bits for pm in chain[1:])
    assert len(aux) == params.alpha
    assert all(pm.q.bit_length() == params.aux_bits for pm in aux)
    assert len(set(pm.q for pm in chain + aux)) == len(chain) + len(aux)
    for level in range(params.levels + 1):
        c = basis_c(params, level)
        assert tuple(c.primes) == chain[:level + 1]
        assert len(basis_d(params, level)) == level + 1 + params.alpha
    assert tuple(basis_b(params).primes) == aux


# ---------------------------------------------------------------------------
# Key switching against exact big-integer arithmetic.
#
# The scheme promises k0 + k1*s = d*t + noise (mod Q_level) where t is the
# switched-out secret.  The check below reconstructs every operand with CRT
# and evaluates that identity with exact integers; only the bounded noise
# term may remain.

NOISE_CEILING = 1 << 20


def halves(stack):
    """c0 and c1 of an (L, 2, N) stack as polynomials."""
    return [RnsPolynomial(stack.basis, stack.limbs[:, h])
            for h in (0, 1)]


def switch_residual(params, d, k, s_coeffs, t_coeffs):
    big_q = d.basis.modulus
    dd = crt_reconstruct(d)
    kk0, kk1 = (crt_reconstruct(h) for h in halves(k))
    lhs = [a + b for a, b in zip(kk0, oracle_negacyclic_big(kk1, s_coeffs))]
    rhs = oracle_negacyclic_big(dd, t_coeffs)
    return max(abs(centered_mod(a - b, big_q)) for a, b in zip(lhs, rhs))


def ternary_coeffs(params, sk):
    s = crt_reconstruct(restrict_poly(sk.poly, basis_c(params, 0)))
    assert max(abs(v) for v in s) <= 1
    return s


def test_relinearization_key_switch_identity(tiny_params, tiny_sk):
    s = ternary_coeffs(tiny_params, tiny_sk)
    t = oracle_negacyclic_big(s, s)
    evk = make_relin_key(tiny_params, tiny_sk, np.random.default_rng([21, 0]))
    for level in (tiny_params.levels, tiny_params.levels - 1):
        rng = np.random.default_rng([21, level])
        d = sample_uniform(basis_c(tiny_params, level), tiny_params.n_ring,
                           rng)
        k = key_switch(tiny_params, d, evk)
        assert switch_residual(tiny_params, d, k, s, t) < NOISE_CEILING


def test_rotation_key_switch_identity(tiny_params, tiny_sk):
    n = tiny_params.n_ring
    s = ternary_coeffs(tiny_params, tiny_sk)
    r = 3
    e5 = pow(5, r, 2 * n)
    t = [0] * n
    for i, c in enumerate(s):
        e = (i * e5) % (2 * n)
        t[e % n] += -c if e >= n else c
    evk = make_rotation_key(tiny_params, tiny_sk, r,
                            np.random.default_rng([23, 0]))
    d = sample_uniform(basis_c(tiny_params, tiny_params.levels),
                       tiny_params.n_ring, np.random.default_rng([23, 1]))
    k = key_switch(tiny_params, d, evk)
    assert switch_residual(tiny_params, d, k, s, t) < NOISE_CEILING


def test_key_switch_rejects_wrong_basis(tiny_params, tiny_sk):
    evk = make_relin_key(tiny_params, tiny_sk, np.random.default_rng(29))
    d = sample_uniform(basis_b(tiny_params), tiny_params.n_ring,
                       np.random.default_rng(31))
    with pytest.raises(BasisMismatchError):
        key_switch(tiny_params, d, evk)
    ct = encrypt(tiny_params, encode(tiny_params, [1.0]), tiny_sk,
                 np.random.default_rng(33))
    with pytest.raises(BasisMismatchError, match="stack"):
        key_switch(tiny_params, ct.poly, evk)


def test_ciphertext_is_one_stack(params, sk):
    """Three fields; the level comes from the basis, c0 and c1 are
    read-only views of the one eval-rep (L, 2, N) stack."""
    rng = np.random.default_rng(35)
    pt = encode(params, random_message(params, rng), level=5)
    ct = encrypt(params, pt, sk, rng)
    assert [f.name for f in fields(Ciphertext)] == ["poly", "scale", "slots"]
    assert [f.name for f in fields(Plaintext)] == ["poly", "scale", "slots"]
    assert ct.poly.limbs.shape == (6, 2, params.n_ring)
    assert ct.level == pt.level == 5
    for h, half in enumerate((ct.c0, ct.c1)):
        assert half.basis == ct.poly.basis
        assert np.shares_memory(half.limbs, ct.poly.limbs)
        assert np.array_equal(half.limbs, ct.poly.limbs[:, h])
        with pytest.raises(ValueError):
            half.limbs[0, 0] = 0
    with pytest.raises(RepresentationError):
        Ciphertext(pt.poly, pt.scale, pt.slots)
    with pytest.raises(RepresentationError):
        period = ct.poly.limbs[..., :128]
        Ciphertext(RnsPolynomial(ct.poly.basis, period), ct.scale,
                   ct.slots)


# ---------------------------------------------------------------------------
# Encoding.

def test_encode_decode_roundtrip(params):
    rng = np.random.default_rng(37)
    v = random_message(params, rng)
    pt = encode(params, v)
    assert pt.level == params.levels
    assert pt.scale == Fraction(1 << 40)
    assert pt.slots == params.n_slots
    assert rel_error(decode(params, pt), v) < 1e-9


def test_encode_rejects_bad_shapes(params):
    with pytest.raises(ConfigurationError):
        encode(params, np.ones(3))
    with pytest.raises(ConfigurationError):
        encode(params, np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        encode(params, np.full(4, 1e30), scale=1 << 55)
    with pytest.raises(ConfigurationError):
        encode(params, np.array([1.0, np.nan]))


def test_zero_scale_refused(params, sk):
    """A zero scale would decode to NaN, so every plaintext rounded from
    slot values refuses it; a negative scale decodes correctly."""
    rng = np.random.default_rng(163)
    v = random_message(params, rng)[:4]
    with pytest.raises(ConfigurationError, match="scale must be nonzero"):
        encode(params, v, scale=0)
    with pytest.raises(ConfigurationError, match="scale must be nonzero"):
        encode_diagonal_batch(params, v[None], 3, Fraction(0))
    ct = encrypt(params, encode(params, v), sk, rng)
    with pytest.raises(ConfigurationError, match="scale must be nonzero"):
        cmult(params, ct, 0.5, scale=0)
    negative = encode(params, v, scale=-(1 << 40))
    assert rel_error(decode(params, negative), v) < 1e-9


def from_coeffs(basis, limbs):
    """The polynomial whose coefficient limbs over `basis` are `limbs`."""
    return RnsPolynomial(basis, transform_limbs(limbs, basis, "forward"))


def dense_lift(coeffs, basis):
    """Oracle: N signed coefficients reduced into every prime and taken
    through the N-point transforms."""
    return from_coeffs(basis, np.stack([coeffs % q for q in basis.qs])
                       .astype(np.uint64))


def dense_encode(params, values, level, scale):
    """Oracle: the vector tiled to n_ring/2 slots, its N coefficients, and
    the coefficient polynomial through the N-point transforms."""
    half = params.n_ring // 2
    coeffs = slots_to_coeffs(np.tile(values, half // len(values)), scale)
    return dense_lift(coeffs, basis_c(params, level))


@pytest.mark.parametrize("which", ["tiny", "desk"])
def test_encode_matches_dense_oracle(which, params, tiny_params):
    """`encode` of m slots holds 2m words per limb, one per coefficient,
    and those words tiled to N equal the dense oracle bit for bit: every m
    at the tiny parameters, m in {1, 64, 4096} at desk, at magnitudes 1e-3
    to 1e5 and the lowest and highest level."""
    p = tiny_params if which == "tiny" else params
    half = p.n_ring // 2
    counts = ([1 << i for i in range(half.bit_length())] if which == "tiny"
              else [1, 64, half])
    rng = np.random.default_rng([151, p.n_ring])
    for m in counts:
        for mag in (1e-3, 1.0, 1e5):
            v = mag * (rng.normal(size=m) + 1j * rng.normal(size=m))
            for level in (0, p.levels):
                pt = encode(p, v, level=level)
                assert pt.poly.limbs.shape == (level + 1, 2 * m)
                assert pt.slots == m
                want = dense_encode(p, v, level, p.scale)
                assert np.array_equal(pt.poly.widened().limbs, want.limbs), \
                    (m, mag, level)


def test_diagonal_batch_matches_per_row_encode(params):
    rng = np.random.default_rng(41)
    half = params.n_ring // 2
    rows = rng.normal(size=(3, half)) + 1j * rng.normal(size=(3, half))
    batch = encode_diagonal_batch(params, rows, level=5)
    assert len(batch) == 3
    for row, pt in zip(rows, batch):
        single = encode(params, row, level=5)
        assert np.array_equal(pt.poly.limbs, single.poly.limbs)
        assert pt.scale == single.scale
        assert (pt.level, pt.slots) == (5, half)
    for m in (3, params.n_ring):
        with pytest.raises(ConfigurationError):
            encode_diagonal_batch(params, np.ones((2, m)), level=5)
    # The batch rounds like encode: a row whose coefficients reach 2^62
    # is rejected, not wrapped.
    with pytest.raises(ConfigurationError):
        encode_diagonal_batch(params, rows * 2.0 ** 27, level=5)


def test_periodic_diagonal_batch_holds_one_period(tiny_params, tiny_sk):
    """Rows of 4 of the 32 slots stand for their 8 repeats, an element of
    Z[X^8]: each plaintext holds 8 words per limb, the words of `encode`
    of the row, and those words tiled to N are the words of `encode` of
    the 32 repeated slots; decode, pmult, padd, encrypt and key switching
    give the words they give for that plaintext widened to N words."""
    params, sk = tiny_params, tiny_sk
    rng = np.random.default_rng(47)
    relin = make_relin_key(params, sk, rng)
    rows = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=2), sk, rng)
    for row, pt in zip(rows, encode_diagonal_batch(params, rows, level=2)):
        assert pt.poly.limbs.shape == (3, 8)
        assert np.array_equal(encode(params, row, level=2).poly.limbs,
                              pt.poly.limbs)
        whole = encode(params, np.tile(row, 8), level=2)
        whole.poly = whole.poly.widened()
        assert np.array_equal(np.tile(pt.poly.limbs, 8), whole.poly.limbs)
        assert np.array_equal(decode(params, pt),
                              decode(params, whole)[:4])
        for op in (pmult, padd):
            assert np.array_equal(op(ct, pt).poly.limbs,
                                  op(ct, whole).poly.limbs)
        assert np.array_equal(
            encrypt(params, pt, sk, np.random.default_rng(53)).poly.limbs,
            encrypt(params, whole, sk, np.random.default_rng(53)).poly.limbs)
        assert np.array_equal(key_switch(params, pt.poly, relin).limbs,
                              key_switch(params, whole.poly, relin).limbs)


def test_diagonal_batch_holds_one_stack(params):
    """The plaintexts are views of the lifted stack, not copies: 64 rows at
    level 7 hold 32 MiB of limbs, and the batch peaks under 56 MiB."""
    half = params.n_ring // 2
    rng = np.random.default_rng(43)
    rows = rng.normal(size=(64, half)) + 1j * rng.normal(size=(64, half))
    encode_diagonal_batch(params, rows[:1], level=7)    # warm the tables
    tracemalloc.start()
    try:
        batch = encode_diagonal_batch(params, rows, level=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(pt.poly.limbs.nbytes for pt in batch) == 32 << 20
    assert peak < 56 << 20


def decode_cases(params, rng):
    """(level, polynomial) pairs built from coefficient limbs: uniform
    limbs (values spread over all of Z_Q), values a few units inside
    +-Q/2, values a few times the base prime, values of the 2^80 scale a
    plaintext product carries, small values with one near +-Q/2, where
    `crt_float` must not stop at the low digits, and exact zeros."""
    n = params.n_ring
    for level in range(params.levels + 1):
        basis = basis_c(params, level)
        big_q = basis.modulus

        def poly_from_big_coeffs(coeffs):
            return from_coeffs(basis, oracle_residues(coeffs, basis.qs))

        yield level, from_coeffs(basis, np.stack(
            [rng.integers(0, pm.q, n, dtype=np.uint64) for pm in basis]))
        edge = [big_q // 2 - int(k) for k in rng.integers(0, 1 << 20, n // 2)]
        edge += [-(big_q // 2) + int(k) for k in rng.integers(0, 1 << 20,
                                                               n // 2)]
        yield level, poly_from_big_coeffs(edge)
        if level:
            # Just above the base prime, where the base digit still reaches
            # the last place of the result.
            q0 = basis.primes[0].q
            near = [int(x) * q0 // 16 + int(y) for x, y in zip(
                rng.integers(-64, 64, n), rng.integers(0, q0, n))]
            yield level, poly_from_big_coeffs(near)
        if big_q > 1 << 82:
            scaled = [int(x) << 60 for x in rng.integers(-1 << 20, 1 << 20, n)]
            scaled[::7] = [0] * len(scaled[::7])
            yield level, poly_from_big_coeffs(scaled)
        lone = [int(x) for x in rng.integers(-1 << 20, 1 << 20, n)]
        lone[int(rng.integers(n))] = (big_q // 2 - 3) * (-1) ** level
        yield level, poly_from_big_coeffs(lone)
        yield level, poly_from_big_coeffs([0] * n)


def test_decode_matches_exact_crt(params, sk):
    """The float lift is within 2^-50 of the exact lift rounded to float,
    coefficient by coefficient; in fact it rounds the same way, and exact
    zeros stay zero."""
    rng = np.random.default_rng(39)
    cases = list(decode_cases(params, rng))
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    product = decrypt(params, pmult(ct, encode(params, v)), sk)
    cases.append((params.levels, product.poly))
    for level, poly in cases:
        want = crt_reconstruct(poly).astype(np.float64)
        got = crt_float(poly.coeffs(), poly.basis)
        assert np.array_equal(got == 0, want == 0), level
        nonzero = want != 0
        rel = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
        assert rel.max(initial=0.0) <= 2.0 ** -50, level
        # The double-double evaluation rounds like the exact path.
        assert np.array_equal(got, want), level
    # decode of n slots is that lift of the stride coefficients c[i N/2n],
    # the projection onto Z[X^(N/2n)], followed by the n-point slot
    # transform.
    n = product.slots
    want = crt_reconstruct(product.poly)[::params.n_ring // (2 * n)]
    want = want.astype(np.float64)
    slots = packed_to_slots((want[:n] + 1j * want[n:])
                            / float(product.scale))
    assert np.array_equal(decode(params, product), slots)
    # At full width, N/2 slots, it is the whole embedding.
    half = params.n_ring // 2
    u = rng.uniform(-1, 1, half) + 1j * rng.uniform(-1, 1, half)
    ct = encrypt(params, encode(params, u), sk, rng)
    product = decrypt(params, pmult(ct, encode(params, u)), sk)
    assert product.slots == half
    want = crt_reconstruct(product.poly).astype(np.float64)
    slots = packed_to_slots((want[:half] + 1j * want[half:])
                            / float(product.scale))[:product.slots]
    assert np.array_equal(decode(params, product), slots)


@pytest.mark.parametrize("level", [7, 1])
def test_projection_is_the_exact_stride_coefficients(params, sk, level):
    """`project` to 2n words and the 2n-point inverse transform give the
    stride coefficients c[i N/2n] of the exact lift, word for word, for
    n in {1, 2, 64, N/4, N/2}, on a decrypted ciphertext, whose noise
    fills every coefficient."""
    rng = np.random.default_rng([167, level])
    half = params.n_ring // 2
    v = rng.uniform(-1, 1, half) + 1j * rng.uniform(-1, 1, half)
    pt = decrypt(params, encrypt(params, encode(params, v, level=level), sk,
                                 rng), sk)
    exact = crt_reconstruct(pt.poly)
    coeffs = pt.poly.coeffs()
    for n in (1, 2, 64, half // 2, half):
        stride = params.n_ring // (2 * n)
        proj = project(pt.poly, 2 * n)
        assert proj.limbs.shape == (level + 1, 2 * n)
        got = transform_limbs(proj.limbs, proj.basis, "inverse")
        assert np.array_equal(got, oracle_residues(exact[::stride],
                                                   pt.poly.basis.qs)), n
        assert np.array_equal(got, coeffs[:, ::stride]), n
    assert project(pt.poly, params.n_ring).limbs is pt.poly.limbs


def test_decode_reads_the_period(params, sk, relin):
    """`slots` is the period of the message: a sum or product of messages
    of 64 and 4096 slots has 4096, and decodes within the budgets of the
    exact sum and product.  An encode of 64 slots (128 words per limb)
    decodes at 64 slots to its packed embedding and at 32 to the average
    of its two halves, the projection onto the smaller subring."""
    rng = np.random.default_rng(173)
    half = params.n_ring // 2
    short = random_message(params, rng)
    wide = rng.uniform(-1, 1, half) + 1j * rng.uniform(-1, 1, half)
    tiled = np.tile(short, half // len(short))
    a = encrypt(params, encode(params, short), sk, rng)
    b = encrypt(params, encode(params, wide), sk, rng)
    bound = 2 * params.budgets.fresh
    for got, want in ((hadd(a, b), tiled + wide), (hsub(a, b), tiled - wide),
                      (hadd(b, a), tiled + wide),
                      (padd(a, encode(params, wide)), tiled + wide)):
        assert got.slots == half
        out = slot_values(params, got, sk)
        assert out.shape == (half,)
        assert rel_error(out, want) < bound
    for got in (pmult(a, encode(params, wide)),
                hmult(params, a, b, relin)):
        assert got.slots == half
        out = slot_values(params, hrescale(params, got), sk)
        assert out.shape == (half,)
        assert rel_error(out, tiled * wide) < params.budgets.multiply
    pt = encode(params, short)
    assert pt.poly.n == 128
    c = slots_to_coeffs(short, params.scale).astype(np.float64)
    m = len(short)
    want = packed_to_slots((c[:m] + 1j * c[m:]) / params.scale)
    assert np.array_equal(decode(params, pt), want)
    pt.slots = m // 2
    c = c[::2]
    want = packed_to_slots((c[:m // 2] + 1j * c[m // 2:]) / params.scale)
    got = decode(params, pt)
    assert np.array_equal(got, want)
    assert rel_error(got, (short[:m // 2] + short[m // 2:]) / 2) < 1e-9
    # A period shorter than 2n words is tiled to 2n, as widening tiles it.
    z = encode(params, [0.75 - 0.25j])
    z.slots = m
    whole = Plaintext(z.poly.widened(), z.scale, m)
    assert np.array_equal(decode(params, z), decode(params, whole))
    assert rel_error(decode(params, z), np.full(m, 0.75 - 0.25j)) < 1e-9


def test_decode_refuses_a_period_that_is_not_one(params, tiny_params):
    """A slot count whose 2n words do not divide n_ring, and rows that do
    not tile 2n words, raise the package's errors."""
    pt = encode(params, np.ones(4))
    for slots in (0, 3, 48, params.n_ring):
        pt.slots = slots
        with pytest.raises(ConfigurationError, match="does not divide"):
            decode(params, pt)
    basis = basis_c(tiny_params, 1)
    odd = Plaintext(RnsPolynomial(basis, np.ones((2, 24), dtype=np.uint64)),
                    Fraction(tiny_params.scale), 4)
    with pytest.raises(BasisMismatchError, match="tile"):
        decode(tiny_params, odd)


# ---------------------------------------------------------------------------
# Scheme operations at desk scale.

def test_fresh_encryption_noise(params, sk):
    rng = np.random.default_rng(43)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    assert rel_error(slot_values(params, ct, sk), v) < params.budgets.fresh


def test_additive_ops(params, sk):
    rng = np.random.default_rng(47)
    va, vb = random_message(params, rng), random_message(params, rng)
    a = encrypt(params, encode(params, va), sk, rng)
    b = encrypt(params, encode(params, vb), sk, rng)
    bound = 2 * params.budgets.fresh
    assert rel_error(slot_values(params, hadd(a, b), sk), va + vb) < bound
    assert rel_error(slot_values(params, hsub(a, b), sk), va - vb) < bound
    assert rel_error(slot_values(params, hneg(a), sk), -va) < bound
    assert rel_error(slot_values(params, padd(a, encode(params, vb)), sk),
                     va + vb) < bound


def test_multiply_rescale(params, sk, relin):
    rng = np.random.default_rng(53)
    va, vb = random_message(params, rng), random_message(params, rng)
    a = encrypt(params, encode(params, va), sk, rng)
    b = encrypt(params, encode(params, vb), sk, rng)
    prod = hrescale(params, hmult(params, a, b, relin))
    q_top = modulus_chain(params)[params.levels].q
    assert prod.level == params.levels - 1
    assert prod.scale == Fraction((1 << 40) ** 2, q_top)
    assert rel_error(slot_values(params, prod, sk),
                     va * vb) < params.budgets.multiply


def test_plaintext_multiply(params, sk):
    rng = np.random.default_rng(59)
    va, vb = random_message(params, rng), random_message(params, rng)
    a = encrypt(params, encode(params, va), sk, rng)
    prod = hrescale(params, pmult(a, encode(params, vb)))
    assert rel_error(slot_values(params, prod, sk),
                     va * vb) < params.budgets.multiply


def test_scalar_ops(params, sk):
    rng = np.random.default_rng(61)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    z = 0.75 - 0.25j
    got = slot_values(params, cadd(params, ct, z), sk)
    assert rel_error(got, v + z) < 2 * params.budgets.fresh
    scaled = hrescale(params, cmult(params, ct, z))
    assert rel_error(slot_values(params, scaled, sk),
                     v * z) < params.budgets.multiply


def test_scalar_is_a_two_word_plaintext(params, sk):
    """`cadd` and `cmult` encode z = x + iy as one slot: the two-term
    polynomial round(x*s) + round(y*s) X^(N/2), two words per limb.  A
    non-finite z, or one whose coefficients overflow 62 bits, raises
    ConfigurationError."""
    rng = np.random.default_rng(157)
    ct = encrypt(params, encode(params, random_message(params, rng)), sk,
                 rng)
    n, scale = params.n_ring, params.scale
    for z in (0.75 - 0.25j, -3.5, 2.5j):
        pt = encode(params, [z], ct.level)
        assert pt.poly.limbs.shape == (ct.level + 1, 2)
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[0] = round(complex(z).real * scale)
        coeffs[n // 2] = round(complex(z).imag * scale)
        want = dense_lift(coeffs, ct.poly.basis)
        assert np.array_equal(pt.poly.widened().limbs, want.limbs)
        assert np.array_equal(cadd(params, ct, z).poly.limbs,
                              padd(ct, pt).poly.limbs)
        assert np.array_equal(cmult(params, ct, z).poly.limbs,
                              pmult(ct, pt).poly.limbs)
    with np.errstate(invalid="ignore"):
        for z in (np.nan, np.inf, complex(0, np.nan), 1e30, 1e7j):
            with pytest.raises(ConfigurationError):
                cadd(params, ct, z)
            with pytest.raises(ConfigurationError):
                cmult(params, ct, z)


def test_rotation_matches_roll(params, sk, rot_keys):
    rng = np.random.default_rng(67)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    budget = params.budgets.fresh * params.budgets.rotate_factor
    for r, evk in rot_keys.items():
        got = slot_values(params, hrot(params, ct, r, evk), sk)
        assert rel_error(got, np.roll(v, -r)) < budget


def test_rotation_step_normalization(params, sk, rot_keys):
    rng = np.random.default_rng(71)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    half = params.n_ring // 2
    assert normalize_step(params, half + 2) == 2
    got = slot_values(params, hrot(params, ct, half + 2, rot_keys[2]), sk)
    want = np.roll(v, -2 % params.n_slots)
    assert rel_error(got, want) < params.budgets.fresh * 2
    # Rotation by zero is the identity and needs no key material.
    same = hrot(params, ct, 0, rot_keys[2])
    assert same is ct


def test_rescale_ledger_is_exact(params, sk):
    rng = np.random.default_rng(73)
    ct = encrypt(params, encode(params, random_message(params, rng)), sk, rng)
    chain = modulus_chain(params)
    scale = Fraction(1 << 40)
    for level in range(params.levels, params.levels - 3, -1):
        ct = hrescale(params, ct)
        scale = scale / chain[level].q
        assert ct.level == level - 1
        assert ct.scale == scale


def rescale_oracle(poly, level, params):
    """(x - [x]_{q_l}) / q_l for the centered lift x, over the lower primes,
    from big integers."""
    chain = modulus_chain(params)
    qs = [pm.q for pm in chain[:level + 1]]
    q_l = qs[-1]
    xs = oracle_crt(poly.coeffs(), qs)
    ys = [(x - centered_mod(x, q_l)) // q_l for x in xs]
    return np.array([[y % q for y in ys] for q in qs[:-1]], dtype=np.uint64)


@pytest.mark.parametrize("which", ["tiny", "desk"])
def test_rescale_matches_big_integer_definition(which, params, sk,
                                                tiny_params, tiny_sk):
    p, key = (tiny_params, tiny_sk) if which == "tiny" else (params, sk)
    rng = np.random.default_rng(75)
    ct = encrypt(p, encode(p, random_message(p, rng)), key, rng)
    for level in range(p.levels, 0, -1):
        out = hrescale(p, ct)
        for before, after in ((ct.c0, out.c0), (ct.c1, out.c1)):
            assert np.array_equal(after.coeffs(),
                                  rescale_oracle(before, level, p)), level
        ct = out


@pytest.mark.parametrize("which, level",
                         [("desk", 7), ("desk", 1), ("tiny", 2), ("tiny", 1)])
def test_mod_down_divides_by_dropped_primes(which, level, params,
                                            tiny_params):
    """From big integers: D * y - x is within (ceil(|dropped| / 2) + 1/2) D
    of zero when ModDown drops the aux basis B, and within D / 2 when it
    drops the one prime q_l."""
    p = tiny_params if which == "tiny" else params
    rng = np.random.default_rng(81 + level)
    q_l = LimbBasis(modulus_chain(p)[level:level + 1])
    for kept, dropped in ((basis_c(p, level), basis_b(p)),
                          (basis_c(p, level - 1), q_l)):
        full = kept.concat(dropped)
        x = sample_uniform(full, p.n_ring, rng)
        out = mod_down(x.limbs, kept, dropped)
        assert out.shape == (len(kept), p.n_ring)
        y = RnsPolynomial(kept, out)
        big_d = dropped.modulus
        xs = oracle_crt(x.coeffs(), full.qs)
        ys = oracle_crt(y.coeffs(), kept.qs)
        worst = max(abs(centered_mod(big_d * b - a, full.modulus))
                    for a, b in zip(xs, ys))
        halves = 1 if len(dropped) == 1 else 2 * -(-len(dropped) // 2) + 1
        assert 2 * worst <= halves * big_d, (len(dropped), worst / big_d)


@pytest.mark.parametrize("level", [7, 1])
def test_stacked_mod_down_equals_one_at_a_time(level, params):
    """Polynomials stacked as (L, R, N) share each prime's transforms and
    come out with the words of R separate ModDowns, dropping B or q_l."""
    rng = np.random.default_rng(91 + level)
    q_l = LimbBasis(modulus_chain(params)[level:level + 1])
    for kept, dropped in ((basis_c(params, level), basis_b(params)),
                          (basis_c(params, level - 1), q_l)):
        full = kept.concat(dropped)
        polys = [sample_uniform(full, params.n_ring, rng).limbs
                 for _ in range(3)]
        stacked = mod_down(np.stack(polys, axis=1), kept, dropped)
        assert stacked.shape == (len(kept), 3, params.n_ring)
        for r, limbs in enumerate(polys):
            assert np.array_equal(stacked[:, r],
                                  mod_down(limbs, kept, dropped)), r


@pytest.mark.parametrize("which", ["tiny", "desk"])
def test_key_switch_transforms_match_cost_model(which, params, relin,
                                                tiny_params, tiny_sk,
                                                ntt_rows):
    """Limb rows transformed by one key switch equal the
    (dnum_l + 2)(alpha + l + 1) that costmodel.keyswitch_mults charges,
    however the rows are grouped into calls."""
    if which == "tiny":
        p, levels = tiny_params, range(tiny_params.levels + 1)
        evk = make_relin_key(p, tiny_sk, np.random.default_rng(93))
        profile = ParamProfile.from_params(p)
    else:
        p, levels, evk, profile = params, (7, 6, 5, 2, 1), relin, \
            PROFILES["desk"]
    rng = np.random.default_rng(95)
    butterflies = p.n_ring // 2 * (p.n_ring.bit_length() - 1)
    counts = {}
    for level in levels:
        d = sample_uniform(basis_c(p, level), p.n_ring, rng)
        ntt_rows.clear()
        key_switch(p, d, evk)
        counts[level] = sum(ntt_rows.values())
        assert counts[level] == keyswitch_mults(profile, level).ntt \
            // butterflies, level
    if which == "desk":
        assert counts[7] == 48


@pytest.mark.parametrize("level", [7, 6, 5, 2, 1])
def test_key_switch_converts_dnum_plus_two_polynomials(level, params, relin,
                                                       monkeypatch):
    """One key switch runs `convert_limbs` once per digit piece (ModUp,
    piece -> rest of C_level + B) and once for ModDown (B -> C_level) over
    both halves stacked: dnum_l + 2 polynomials, the factor of
    costmodel.keyswitch_mults."""
    calls = []
    real = ckks_module.convert_limbs

    def recording(limbs, source, target):
        calls.append((source, target, limbs.shape))
        return real(limbs, source, target)

    monkeypatch.setattr(ckks_module, "convert_limbs", recording)
    d = sample_uniform(basis_c(params, level), params.n_ring,
                       np.random.default_rng(97))
    key_switch(params, d, relin)
    count = -(-(level + 1) // params.alpha)
    full = basis_d(params, level)
    n = params.n_ring
    for i, (source, target, shape) in enumerate(calls[:-1]):
        lo = i * params.alpha
        assert source == LimbBasis(full.primes[lo:min(lo + params.alpha,
                                                      level + 1)])
        assert target.primes == tuple(pm for pm in full
                                      if pm not in source.primes)
        assert shape == (len(source), n)
    assert calls[-1] == (basis_b(params), basis_c(params, level),
                         (params.alpha, 2, n))
    polys = sum(int(np.prod(shape[1:-1])) for _, _, shape in calls)
    assert len(calls) == count + 1 and polys == count + 2
    butterflies = n // 2 * (n.bit_length() - 1)
    assert keyswitch_mults(PROFILES["desk"], level).ntt // butterflies \
        == polys * (params.alpha + level + 1)


def test_key_switch_memory_peak(params, relin):
    """One L7 key switch holds the (12, 2, N) ModUp stack, the (12, 2, N)
    key product and the (8, 2, N) result, 4 MiB, and peaks under 7 MiB:
    each piece's converted rows live only until they are copied in."""
    d = sample_uniform(basis_c(params, 7), params.n_ring,
                       np.random.default_rng(99))
    key_switch(params, d, relin)                        # warm the tables
    tracemalloc.start()
    try:
        key_switch(params, d, relin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 << 20, peak / 2 ** 20


@pytest.mark.parametrize("level", [7, 4, 1])
def test_generated_key_switches_like_its_expansion(level, params, relin,
                                                   tmp_path):
    """A generated key keeps a_i as a seed; it switches to the words of
    the same key with a_i as limbs, and of that key saved and loaded."""
    path = str(tmp_path / "relin.evk")
    save_evaluation_key(path, relin)
    d = sample_uniform(basis_c(params, level), params.n_ring,
                       np.random.default_rng(107))
    want = key_switch(params, d, relin).limbs
    for key in (relin.expanded(), load_evaluation_key(path, params)):
        assert np.array_equal(key_switch(params, d, key).limbs, want)


def test_generated_key_holds_b_halves_only(params, relin):
    """Only the b_i limbs of a generated key are resident: dnum pieces of
    12 limbs, 1.5 MiB at desk, half of what its container holds."""
    resident = [half.limbs.nbytes for piece in relin.pieces for half in piece
                if isinstance(half, RnsPolynomial)]
    assert resident == [12 * params.n_ring * 8] * params.dnum
    assert all(isinstance(a, UniformSeed) for _, a in relin.pieces)
    loaded = relin.expanded()
    assert 2 * sum(resident) == sum(half.limbs.nbytes
                                    for piece in loaded.pieces
                                    for half in piece)


@pytest.mark.parametrize("op, kept_mib, peak_mib", [
    ("hrot", 1, 7.5), ("hmult", 1, 7.5), ("hrescale", 0.875, 2)])
def test_stacked_op_memory(op, kept_mib, peak_mib, params, sk, relin,
                           rot_keys):
    """At L7 each op keeps exactly its (L, 2, N) output, 1 MiB, or
    0.875 MiB for the L6 rescale output: less than one 64 KiB row on top.

    hrot and hmult hold one (8, N) polynomial, 0.5 MiB, through the key
    switch (the rotated c1; the product c1 * c1'), which peaks under 7 MiB
    on its own (test_key_switch_memory_peak): under 7.5 MiB.  hrescale
    holds its 0.875 MiB output and the conversion of the dropped prime's
    (1, 2, N) rows, about 1 MiB of temporaries: under 2 MiB, where a
    stacked copy of the 1 MiB input would put it near 2.9."""
    rng = np.random.default_rng(103)
    ct, dt = (encrypt(params, encode(params, random_message(params, rng)),
                      sk, rng) for _ in range(2))
    run = {"hrot": lambda: hrot(params, ct, 5, rot_keys[5]),
           "hmult": lambda: hmult(params, ct, dt, relin),
           "hrescale": lambda: hrescale(params, ct)}[op]
    run()                                               # warm the tables
    tracemalloc.start()
    try:
        out = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.poly.limbs.nbytes == kept_mib * (1 << 20)
    assert kept - out.poly.limbs.nbytes < 64 << 10, kept / 2 ** 20
    assert peak < peak_mib * (1 << 20), peak / 2 ** 20


@pytest.mark.parametrize("which", ["tiny", "desk"])
def test_rescale_transforms_l_plus_one_limbs(which, params, sk, tiny_params,
                                             tiny_sk, ntt_rows):
    """Limb transforms per rescaled polynomial equal the l + 1 that
    costmodel.rescale_mults charges."""
    p, key = (tiny_params, tiny_sk) if which == "tiny" else (params, sk)
    profile = ParamProfile.from_params(p)
    rng = np.random.default_rng(77)
    ct = encrypt(p, encode(p, random_message(p, rng)), key, rng)
    butterflies = p.n_ring // 2 * (p.n_ring.bit_length() - 1)
    for level in range(p.levels, 0, -1):
        ntt_rows.clear()
        ct = hrescale(p, ct)
        model = (rescale_mults(profile, level) // 2
                 - level * p.n_ring) // butterflies
        assert model == level + 1
        assert sum(ntt_rows.values()) == 2 * model, level


# Digests of the limbs these operations returned, for this seed, before
# their kernels were rewritten (lazy NTT butterflies, the float quotient,
# evaluation-domain rescale, one reduction per key-switch word, the
# base-conversion row loop).  The rewrites promise the same words.
PINNED = {
    "key_switch": "72d92fedc8e22991",
    "hmult": "581b49fd8b2fccad",
    "hrot": "ae904c24d0b9d232",
    "hrescale": "383990e680793576",
}


def limb_digest(stack):
    """sha256 over c0's limbs, then c1's, of an (L, 2, N) stack."""
    h = hashlib.sha256()
    for p in halves(stack):
        h.update(np.ascontiguousarray(p.limbs, dtype="<u8").tobytes())
    return h.hexdigest()[:16]


def test_rewritten_ops_reproduce_pinned_limbs(params, sk, relin, rot_keys):
    rng = np.random.default_rng([13, 5])
    v, w = random_message(params, rng), random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    dt = encrypt(params, encode(params, w), sk, rng)
    switched = key_switch(params, rp_mul(ct.c1, dt.c1), relin)
    prod = hmult(params, ct, dt, relin)
    rot = hrot(params, ct, 5, rot_keys[5])
    res = hrescale(params, prod)
    got = {
        "key_switch": limb_digest(switched),
        "hmult": limb_digest(prod.poly),
        "hrot": limb_digest(rot.poly),
        "hrescale": limb_digest(res.poly),
    }
    assert got == PINNED


def test_mod_drop(params, sk):
    rng = np.random.default_rng(79)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    low = mod_drop(params, ct, 3)
    assert low.level == 3 and low.scale == ct.scale
    assert len(low.c0.basis) == 4
    assert rel_error(slot_values(params, low, sk), v) < params.budgets.fresh
    with pytest.raises(LevelExhaustedError):
        mod_drop(params, low, 5)


def test_deep_circuit_stays_within_budget(params, sk, relin):
    """(v^2)^2 after two multiply/rescale rounds tracks the plain value."""
    rng = np.random.default_rng(83)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    sq = hrescale(params, hmult(params, ct, ct, relin))
    fourth = hrescale(params, hmult(params, sq, sq, relin))
    assert fourth.level == params.levels - 2
    assert rel_error(slot_values(params, fourth, sk),
                     v ** 4) < 4 * params.budgets.multiply


# ---------------------------------------------------------------------------
# Guard rails.

def test_mismatch_errors(params, sk, relin, rot_keys):
    rng = np.random.default_rng(89)
    v = random_message(params, rng)
    a = encrypt(params, encode(params, v), sk, rng)
    b = encrypt(params, encode(params, v, scale=1 << 41), sk, rng)
    with pytest.raises(ScaleMismatchError):
        hadd(a, b)
    low = mod_drop(params, a, 4)
    with pytest.raises(BasisMismatchError):
        hadd(a, low)
    with pytest.raises(BasisMismatchError):
        hmult(params, a, low, relin)
    with pytest.raises(BasisMismatchError):
        pmult(a, encode(params, v, level=4))
    with pytest.raises(MissingKeyError):
        hmult(params, a, a, rot_keys[1])
    with pytest.raises(MissingKeyError):
        hrot(params, a, 3, rot_keys[1])
    with pytest.raises(ConfigurationError):
        make_rotation_key(params, sk, 0, rng)


@pytest.mark.parametrize("op", ["hrot", "hmult"])
@pytest.mark.parametrize("other", [dict(q0_bits=58), dict(scale_bits=39),
                                   dict(alpha=2), dict(n_ring=4096)])
def test_key_for_other_parameters_is_refused(other, op, params, sk,
                                             monkeypatch):
    """A switching key made under other parameters has another piece
    count or lies over other primes.  It is refused before any seed is
    expanded: not used to give slots that are noise, nor left to fail on
    an index or a shape."""
    foreign = CkksParams(**other)
    rng = np.random.default_rng(109)
    fsk = keygen(foreign, rng)
    evk = (make_rotation_key(foreign, fsk, 1, rng) if op == "hrot"
           else make_relin_key(foreign, fsk, rng))
    ct = encrypt(params, encode(params, random_message(params, rng)), sk, rng)

    def no_expansion(seed):
        raise AssertionError("a seed was expanded")

    monkeypatch.setattr(UniformSeed, "expand", no_expansion)
    with pytest.raises(BasisMismatchError, match="other parameters"):
        if op == "hrot":
            hrot(params, ct, 1, evk)
        else:
            hmult(params, ct, ct, evk)


@pytest.fixture(scope="module")
def step_keys(params, sk):
    return make_rotation_keys(params, sk, (1, 2, 3),
                              np.random.default_rng(113))


@pytest.mark.parametrize("level", [7, 4, 1])
def test_mod_up_commutes_with_automorphism(level, params, sk, step_keys):
    """Rotating the ModUp stack of c1 and switching from there gives the
    words of switching the rotated c1, for steps 1, 2 and 3: the centered
    conversion commutes with the automorphism, a signed permutation of
    the coefficients.  One ModUp can serve many rotations (hoisting)."""
    rng = np.random.default_rng([115, level])
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=level), sk, rng)
    c_basis, d_basis = basis_c(params, level), basis_d(params, level)
    ext = RnsPolynomial(d_basis, mod_up(ct.c1.limbs, d_basis, params.alpha))
    for r, key in step_keys.items():
        hoisted = mod_down(key_product(params, automorphism(ext, r).limbs,
                                       key), c_basis, basis_b(params))
        want = key_switch(params, automorphism(ct.c1, r), key)
        assert np.array_equal(hoisted, want.limbs), r


def test_rescale_exhaustion(params, sk):
    rng = np.random.default_rng(97)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=0), sk, rng)
    with pytest.raises(LevelExhaustedError):
        hrescale(params, ct)


def test_rotation_key_table(params, sk):
    keys = make_rotation_keys(params, sk, [1, 2, 1, 0, params.n_ring // 2],
                              np.random.default_rng(101))
    assert sorted(keys) == [1, 2]
    assert all(evk.step == r for r, evk in keys.items())


# ---------------------------------------------------------------------------
# Small parameter sets drawn at random.

@st.composite
def small_params(draw):
    """Ring degree 2^6..2^10, 1..7 levels, a digit size alpha dividing
    levels + 1, and a power-of-two slot count up to n_ring / 2."""
    log_n = draw(st.integers(6, 10))
    levels = draw(st.integers(1, 7))
    alpha = draw(st.sampled_from([a for a in range(1, levels + 2)
                                  if (levels + 1) % a == 0]))
    n_slots = 1 << draw(st.integers(1, log_n - 1))
    return CkksParams(n_ring=1 << log_n, n_slots=n_slots, levels=levels,
                      alpha=alpha)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(params=small_params())
@example(params=CkksParams(n_ring=1024, n_slots=512, levels=7, alpha=8))
def test_scheme_ops_within_budget_on_small_params(params, tmp_path_factory):
    """Each drawn set builds its own primes and twiddle tables; fresh
    encryption, a multiply with rescale and a rotation by one stay within
    their budgets, and the parameter file reads back the same set.  The
    draws shrink toward small rings, so the widest corner, 2^10 with 16
    primes and full slots, is an explicit example."""
    budgets = params.budgets
    rng = np.random.default_rng([params.n_ring, params.levels, params.alpha,
                                 params.n_slots])
    sk = keygen(params, rng)
    va, vb = random_message(params, rng), random_message(params, rng)
    a = encrypt(params, encode(params, va), sk, rng)
    b = encrypt(params, encode(params, vb), sk, rng)
    assert rel_error(slot_values(params, a, sk), va) < budgets.fresh
    prod = hrescale(params, hmult(params, a, b, make_relin_key(params, sk,
                                                               rng)))
    assert rel_error(slot_values(params, prod, sk),
                     va * vb) < budgets.multiply
    rot = make_rotation_keys(params, sk, [1], rng)[1]
    assert rel_error(slot_values(params, hrot(params, a, 1, rot), sk),
                     np.roll(va, -1)) < budgets.fresh * budgets.rotate_factor
    path = str(tmp_path_factory.mktemp("params") / "params.txt")
    write_params(path, params, seed=7)
    assert read_params(path) == (params, 7)
