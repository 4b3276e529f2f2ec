"""RNS polynomial primitives against big-integer CRT oracles."""

import tracemalloc

import numpy as np
import pytest

from oracles import (centered_mod, oracle_crt, oracle_negacyclic,
                     oracle_residues)
from rnsckks.ckks import CkksParams, basis_c, basis_d
from rnsckks.errors import BasisMismatchError, RepresentationError
from rnsckks.modmath import U64, PrimeModulus, generate_ntt_primes
from rnsckks.ntt import ntt
from rnsckks.rnspoly import (COEFF, EVAL, BaseTable, LimbBasis,
                             RnsPolynomial, automorphism, base_convert,
                             crt_reconstruct, lift_int_coeffs,
                             make_base_table, poly_from_int_coeffs, rp_add,
                             rp_mul, rp_neg, rp_scalar_mul_per_limb, rp_sub)


def make_basis(bits, count, two_n, skip=()):
    qs = generate_ntt_primes(bits, count, two_n, skip=skip)
    return LimbBasis(tuple(PrimeModulus(q, two_n) for q in qs))


BASIS64 = make_basis(40, 3, 128)
AUX64 = make_basis(45, 4, 128, skip=tuple(p.q for p in BASIS64))


def random_poly(basis, n, rng, rep=COEFF):
    limbs = np.stack([rng.integers(0, pm.q, n, dtype=np.uint64)
                      for pm in basis])
    return RnsPolynomial(basis, rep, limbs)


def test_limb_basis_value_semantics():
    other = LimbBasis(tuple(BASIS64.primes))
    assert other == BASIS64
    assert len(BASIS64) == 3
    got = 1
    for pm in BASIS64:
        got *= pm.q
    assert BASIS64.modulus == got


def test_poly_roundtrip_small_ints():
    rng = np.random.default_rng(61)
    coeffs = rng.integers(-5000, 5000, 64)
    p = poly_from_int_coeffs(coeffs, BASIS64)
    assert np.array_equal(np.array(crt_reconstruct(p), dtype=np.int64),
                          coeffs)


def test_poly_roundtrip_big_ints():
    rng = np.random.default_rng(67)
    half = BASIS64.modulus // 2
    coeffs = [int(rng.integers(-(1 << 62), 1 << 62)) * 1259 % half
              for _ in range(64)]
    p = RnsPolynomial(BASIS64, COEFF, oracle_residues(coeffs, BASIS64.qs))
    assert list(crt_reconstruct(p)) == coeffs


def test_lift_matches_big_integer_residues():
    """The integer -> evaluation lift that encoding, seed extension and
    rescale share equals big-integer residues followed by the forward NTT
    at every prime width of the default chain, for one polynomial and for
    a stack of rows."""
    params = CkksParams()
    basis = basis_d(params, params.levels)
    assert {pm.bit_width for pm in basis} == {59, 40, 60}
    n = params.n_ring
    q0 = basis.primes[0].q
    top = (1 << 62) - 1
    edge = [0, (q0 - 1) // 2, -((q0 - 1) // 2), top, -top]
    rng = np.random.default_rng(109)
    rows = np.stack([np.resize(np.array(edge, dtype=np.int64), n),
                     rng.integers(-top, top, n, endpoint=True),
                     np.zeros(n, dtype=np.int64)])
    stacked = lift_int_coeffs(rows, basis)
    assert stacked.shape == (len(basis), len(rows), n)
    for r, row in enumerate(rows):
        residues = oracle_residues(row.tolist(), basis.qs)
        want = np.stack([ntt(res, pm, "forward")
                         for res, pm in zip(residues, basis)])
        assert np.array_equal(stacked[:, r], want), r
        assert np.array_equal(lift_int_coeffs(row, basis), want), r


def test_lift_holds_one_stack():
    """Lifting 64 rows to level 7 holds the 32 MiB result plus one prime's
    rows and one transform block, not four times a prime's rows."""
    params = CkksParams()
    basis = basis_c(params, 7)
    coeffs = np.random.default_rng(113).integers(
        -(1 << 50), 1 << 50, (64, params.n_ring), dtype=np.int64)
    lift_int_coeffs(coeffs[:1], basis)   # tables are built once, not here
    tracemalloc.start()
    try:
        out = lift_int_coeffs(coeffs, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 32 << 20
    assert peak < 42 << 20


def test_lift_writes_each_prime_in_place():
    """Residues and transforms write straight into the result stack, so
    lifting 64 rows to level 7 peaks at the 32 MiB result plus one
    transform block's temporaries, without a prime's rows copied aside."""
    params = CkksParams()
    basis = basis_c(params, 7)
    coeffs = np.random.default_rng(113).integers(
        -(1 << 50), 1 << 50, (64, params.n_ring), dtype=np.int64)
    lift_int_coeffs(coeffs[:1], basis)
    tracemalloc.start()
    try:
        out = lift_int_coeffs(coeffs, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 32 << 20
    assert peak < 34 << 20


def test_rep_conversion_roundtrip_bitwise():
    rng = np.random.default_rng(71)
    p = random_poly(BASIS64, 64, rng)
    assert np.array_equal(p.to_eval().to_coeff().limbs, p.limbs)


def test_elementwise_ops_match_crt_oracle():
    rng = np.random.default_rng(73)
    a = random_poly(BASIS64, 64, rng)
    b = random_poly(BASIS64, 64, rng)
    big = BASIS64.modulus
    av = oracle_crt(a.limbs, [pm.q for pm in BASIS64], centered=False)
    bv = oracle_crt(b.limbs, [pm.q for pm in BASIS64], centered=False)
    got_add = crt_reconstruct(rp_add(a, b), centered=False)
    assert list(got_add) == [(x + y) % big for x, y in zip(av, bv)]
    got_sub = crt_reconstruct(rp_sub(a, b), centered=False)
    assert list(got_sub) == [(x - y) % big for x, y in zip(av, bv)]
    got_neg = crt_reconstruct(rp_neg(a), centered=False)
    assert list(got_neg) == [(-x) % big for x in av]


def test_ring_product_matches_negacyclic_oracle():
    rng = np.random.default_rng(79)
    a = random_poly(BASIS64, 64, rng).to_eval()
    b = random_poly(BASIS64, 64, rng).to_eval()
    prod = rp_mul(a, b).to_coeff()
    for i, pm in enumerate(BASIS64):
        want = oracle_negacyclic(a.to_coeff().limbs[i],
                                 b.to_coeff().limbs[i], pm.q)
        assert np.array_equal(prod.limbs[i], np.array(want, dtype=U64))


def test_scalar_multiplies():
    rng = np.random.default_rng(83)
    a = random_poly(BASIS64, 32, rng)
    want = oracle_crt(a.limbs, [pm.q for pm in BASIS64], centered=False)
    table = {pm.q: 5 for pm in BASIS64}
    per = rp_scalar_mul_per_limb(a, table)
    assert list(crt_reconstruct(per, centered=False)) \
        == [(5 * x) % BASIS64.modulus for x in want]


def test_mismatched_operands_rejected():
    rng = np.random.default_rng(89)
    a = random_poly(BASIS64, 32, rng)
    b = random_poly(AUX64, 32, rng)
    with pytest.raises(BasisMismatchError):
        rp_add(a, b)
    with pytest.raises(RepresentationError):
        rp_mul(a.to_eval(), random_poly(BASIS64, 32, rng))


# ---------------------------------------------------------------------------
# Base conversion.

def test_base_table_entries_match_big_products():
    table = make_base_table(BASIS64, AUX64)
    assert isinstance(table, BaseTable)
    assert make_base_table(BASIS64, AUX64) is table
    p_src = BASIS64.modulus
    for j, pj in enumerate(BASIS64):
        phat = p_src // pj.q
        inv = pow(phat % pj.q, -1, pj.q)
        assert int(table.inv_factors[j]) == inv
        assert int(table.inv_shoup[j]) == (inv << 64) // pj.q
        for i, qi in enumerate(AUX64):
            assert int(table.factors[i, j]) == phat % qi.q
            assert int(table.factors_shoup[i, j]) \
                == ((phat % qi.q) << 64) // qi.q
    for i, qi in enumerate(AUX64):
        assert int(table.src_mod[i]) == p_src % qi.q


@pytest.mark.parametrize("n", [64, 1024])
def test_base_convert_matches_crt_with_slack(n):
    """Output equals the exact value plus k * P_src, |k| <= |src|/2 + 1."""
    two_n = 2 * n
    src = make_basis(40, 4, two_n)
    tgt = make_basis(59, 5, two_n, skip=tuple(p.q for p in src))
    table = make_base_table(src, tgt)
    rng = np.random.default_rng([97, n])
    for _ in range(3):
        p = random_poly(src, n, rng)
        out = base_convert(p, table)
        want = oracle_crt(p.limbs, [pm.q for pm in src])
        got = oracle_crt(out.limbs, [pm.q for pm in tgt])
        big = src.modulus
        ks = set()
        for g, w in zip(got, want):
            slack = g - w
            assert slack % big == 0
            ks.add(slack // big)
        assert max(abs(k) for k in ks) <= len(src) // 2 + 1


def test_base_convert_rejects_wrong_input():
    src = make_basis(40, 3, 128)
    tgt = make_basis(59, 4, 128, skip=tuple(p.q for p in src))
    table = make_base_table(src, tgt)
    p = random_poly(src, 64, np.random.default_rng(107), rep=COEFF)
    with pytest.raises(RepresentationError):
        base_convert(p.to_eval(), table)
    with pytest.raises(BasisMismatchError):
        base_convert(random_poly(tgt, 64, np.random.default_rng(1)), table)


# ---------------------------------------------------------------------------
# Automorphisms.

def test_automorphism_composition_law():
    rng = np.random.default_rng(109)
    p = random_poly(BASIS64, 64, rng)
    for r1, r2 in [(1, 2), (3, 5), (7, 11)]:
        two = automorphism(automorphism(p, r1), r2)
        one = automorphism(p, r1 + r2)
        assert np.array_equal(two.limbs, one.limbs)


def test_automorphism_is_ring_homomorphism():
    rng = np.random.default_rng(113)
    a = random_poly(BASIS64, 64, rng)
    b = random_poly(BASIS64, 64, rng)
    for r in (1, 3, 6):
        lhs = automorphism(rp_mul(a.to_eval(), b.to_eval()).to_coeff(), r)
        rhs = rp_mul(automorphism(a, r).to_eval(),
                     automorphism(b, r).to_eval()).to_coeff()
        assert np.array_equal(lhs.limbs, rhs.limbs)


def test_automorphism_reps_agree_bitwise():
    rng = np.random.default_rng(127)
    p = random_poly(BASIS64, 64, rng)
    for r in (1, 2, 9):
        via_eval = automorphism(p.to_eval(), r).to_coeff()
        via_coeff = automorphism(p, r)
        assert np.array_equal(via_eval.limbs, via_coeff.limbs)


def test_automorphism_explicit_monomial_map():
    """psi_r sends X^i to +-X^(i * 5^r mod N) with negacyclic sign."""
    n = 64
    basis = make_basis(40, 1, 2 * n)
    pm = basis.primes[0]
    r = 1
    for i in (0, 1, 5, 40, 63):
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[i] = 1
        p = poly_from_int_coeffs(coeffs, basis)
        out = crt_reconstruct(automorphism(p, r))
        e = (i * pow(5, r, 2 * n)) % (2 * n)
        want = [0] * n
        want[e % n] = -1 if e >= n else 1
        assert [centered_mod(int(x), pm.q) for x in out] == want
