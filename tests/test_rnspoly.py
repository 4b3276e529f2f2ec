"""RNS polynomial primitives against big-integer CRT oracles."""

import importlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (centered_mod, oracle_automorphism, oracle_crt,
                     oracle_negacyclic, oracle_residues)
from rnsckks.ckks import (CkksParams, basis_b, basis_c, basis_d,
                          modulus_chain)
from rnsckks.errors import BasisMismatchError, ConfigurationError
from rnsckks.modmath import U64, PrimeModulus, generate_ntt_primes
from rnsckks.ntt import ntt
from rnsckks.rnspoly import (BaseTable, LimbBasis, RnsPolynomial,
                             automorphism, base_convert, convert_limbs,
                             crt_float, crt_reconstruct, lift_int_coeffs,
                             make_base_table, rp_add, rp_mul, rp_mul_sum,
                             rp_neg, rp_scalar_mul_per_limb, rp_sub,
                             transform_limbs)


rnspoly_module = importlib.import_module("rnsckks.rnspoly")


def make_basis(bits, count, two_n, skip=()):
    qs = generate_ntt_primes(bits, count, two_n, skip=skip)
    return LimbBasis(tuple(PrimeModulus(q, two_n) for q in qs))


BASIS64 = make_basis(40, 3, 128)
AUX64 = make_basis(45, 4, 128, skip=tuple(p.q for p in BASIS64))


def random_poly(basis, n, rng):
    limbs = np.stack([rng.integers(0, pm.q, n, dtype=np.uint64)
                      for pm in basis])
    return RnsPolynomial(basis, limbs)


def from_coeffs(basis, limbs):
    """The polynomial whose coefficient limbs over `basis` are `limbs`."""
    return RnsPolynomial(basis, transform_limbs(limbs, basis, "forward"))


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
    p = RnsPolynomial(BASIS64, lift_int_coeffs(coeffs, BASIS64))
    assert np.array_equal(np.array(crt_reconstruct(p), dtype=np.int64),
                          coeffs)


def test_poly_roundtrip_big_ints():
    rng = np.random.default_rng(67)
    half = BASIS64.modulus // 2
    coeffs = [int(rng.integers(-(1 << 62), 1 << 62)) * 1259 % half
              for _ in range(64)]
    p = from_coeffs(BASIS64, oracle_residues(coeffs, BASIS64.qs))
    assert list(crt_reconstruct(p)) == coeffs


def _dense_lift(rows, basis):
    """Per-row oracle: big-integer residues through the full-length NTT."""
    return np.stack([np.stack([ntt(res, pm, "forward")
                               for res, pm in zip(
                                   oracle_residues(row.tolist(), basis.qs),
                                   basis)])
                     for row in rows], axis=1)


def _tiled(limbs, basis):
    """Lifted limbs, one period, tiled to the ring degree of `basis`."""
    return RnsPolynomial(basis, limbs).widened().limbs


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
    want = _dense_lift(rows, basis)
    assert np.array_equal(stacked, want)
    for r, row in enumerate(rows):
        assert np.array_equal(_tiled(lift_int_coeffs(row, basis), basis),
                              want[:, r]), r


@pytest.mark.parametrize("log_t", range(13))
def test_subring_lift_matches_dense_transform(log_t, ntt_rows):
    """Rows of N/t words, elements of Z[X^t], lift through (N/t)-point
    transforms alone to one period of N/t words, and that period tiled t
    times equals the dense N-point transform of the N-word rows that hold
    the same coefficients at stride t, word for word, at every prime width
    of C_7 + B and for (N/t,) and (R, N/t) input, with an all-zero row and
    a row nonzero only at index 0 in the stack."""
    params = CkksParams()
    basis = basis_d(params, params.levels)
    assert {pm.bit_width for pm in basis} == {59, 40, 60}
    n, t = params.n_ring, 1 << log_t
    top = (1 << 62) - 1
    rows = np.zeros((4, n // t), dtype=np.int64)
    rows[0] = np.random.default_rng([127, log_t]).integers(
        -top, top, n // t, endpoint=True)
    rows[1] = top
    rows[3, 0] = -top
    sparse = np.zeros((4, n), dtype=np.int64)
    sparse[:, ::t] = rows
    got = lift_int_coeffs(rows, basis)
    assert got.shape == (len(basis), len(rows), n // t)
    assert np.array_equal(_tiled(got, basis), _dense_lift(sparse, basis))
    assert ntt_rows == {("forward", n // t): len(rows) * len(basis)}
    assert np.array_equal(lift_int_coeffs(rows[0], basis), got[:, 0])


def test_lift_keeps_the_row_length(ntt_rows):
    """N-word rows lift to N words through N-point transforms, however
    sparse: a zero row, a row nonzero only at index 0 and a stride-64 row
    each equal their dense lift, alone and stacked."""
    params = CkksParams()
    basis = basis_d(params, params.levels)
    n = params.n_ring
    rows = np.zeros((3, n), dtype=np.int64)
    rows[1, 0] = -12345
    rows[2, ::64] = np.random.default_rng(131).integers(
        -(1 << 40), 1 << 40, n // 64)
    want = _dense_lift(rows, basis)
    for r, row in enumerate(rows):
        ntt_rows.clear()
        got = lift_int_coeffs(row, basis)
        assert got.shape == (len(basis), n), r
        assert np.array_equal(got, want[:, r]), r
        assert ntt_rows == {("forward", n): len(basis)}, r
    assert np.array_equal(lift_int_coeffs(rows, basis), want)


def test_lift_rejects_length_not_power_of_two():
    basis = basis_c(CkksParams(), 1)
    for n in (12, 24, 96):
        sparse = np.zeros((2, n), dtype=np.int64)
        sparse[:, ::4] = 1
        for coeffs in (sparse, np.ones(n, dtype=np.int64)):
            with pytest.raises(ConfigurationError):
                lift_int_coeffs(coeffs, basis)


def test_lift_writes_each_prime_in_place():
    """Residues and transforms write straight into the result stack, so
    lifting 64 rows to level 7 holds one stack, the 32 MiB result, and
    peaks at it plus one transform block's temporaries: no prime's 4 MiB
    of rows is copied aside, let alone the four copies a lift through
    per-prime temporaries would hold."""
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


def test_subring_lift_holds_one_stack():
    """Lifting 64 rows of N/64 words to level 7 holds only their period, a
    0.5 MiB stack of (N/64)-point rows, and peaks below 1 MiB: no stack
    of N-word rows, which would take 32 MiB."""
    params = CkksParams()
    basis = basis_c(params, 7)
    coeffs = np.random.default_rng(137).integers(
        -(1 << 50), 1 << 50, (64, params.n_ring // 64))
    lift_int_coeffs(coeffs[:1], basis)
    tracemalloc.start()
    try:
        out = lift_int_coeffs(coeffs, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 1 << 19
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# One-period polynomials.

def subring_coeffs(t, rng, rows=()):
    """Random polynomials in Z[X^t] at ring degree 64, as their rows of
    64/t coefficients."""
    return rng.integers(-(1 << 40), 1 << 40, rows + (64 // t,))


def period(coeffs):
    return RnsPolynomial(BASIS64, lift_int_coeffs(coeffs, BASIS64))


@pytest.mark.parametrize("t", [1, 4, 16])
def test_lift_period_is_the_lift_before_its_tile(t):
    """The one lift keeps N/t words per row of N/t coefficients, an
    element of Z[X^t]; tiled t times, or by `widened`, they are the dense
    transform's N words of the N-word row that holds the coefficients at
    stride t, which lifts to those N words itself; full rows are not
    copied."""
    rng = np.random.default_rng([139, t])
    assert BASIS64.ring_degree == 64
    for coeffs in (subring_coeffs(t, rng), subring_coeffs(t, rng, (3,))):
        sparse = np.zeros(coeffs.shape[:-1] + (64,), dtype=np.int64)
        sparse[..., ::t] = coeffs
        whole = _dense_lift(sparse.reshape(-1, 64), BASIS64).reshape(
            (len(BASIS64),) + sparse.shape)
        p = period(coeffs)
        assert p.limbs.shape == whole.shape[:-1] + (64 // t,)
        assert np.array_equal(period(sparse).limbs, whole)
        assert np.array_equal(np.tile(p.limbs, t), whole)
        assert np.array_equal(p.widened().limbs, whole)
    full = RnsPolynomial(BASIS64, whole)
    assert full.widened() is full


def test_period_broadcasts_as_its_tiled_rows():
    """Every operation gives the words it gives on the tiled rows: against
    full rows and stacks the result has full rows; between periods it is
    the longer period; periods of different lengths mix."""
    rng = np.random.default_rng(149)
    p, q = period(subring_coeffs(4, rng)), period(subring_coeffs(16, rng))
    s, r = random_stack(BASIS64, 64, rng), random_poly(BASIS64, 64, rng)
    ops = [lambda x, y: rp_add(s, x), lambda x, y: rp_sub(x, s),
           lambda x, y: rp_mul(s, x), lambda x, y: rp_mul(x, r),
           lambda x, y: rp_mul(x, y), lambda x, y: rp_add(y, x),
           lambda x, y: rp_neg(x),
           lambda x, y: rp_mul_sum([(s, x), (r, y), (x, y)]),
           lambda x, y: rp_mul_sum([(x, y), (y, y)])]
    for k, op in enumerate(ops):
        got = op(p, q)
        want = op(p.widened(), q.widened())
        assert np.array_equal(got.widened().limbs, want.limbs), k
        assert got.n == (16 if k in (4, 5, 6, 8) else 64), k


def test_period_readers_widen():
    """Whole-polynomial readers see the tiled rows."""
    rng = np.random.default_rng(151)
    p = period(subring_coeffs(8, rng))
    whole = p.widened()
    assert np.array_equal(p.coeffs(), whole.coeffs())
    assert crt_reconstruct(p).tolist() == crt_reconstruct(whole).tolist()
    assert np.array_equal(crt_float(p.coeffs(), p.basis),
                          crt_float(whole.coeffs(), whole.basis))
    for r in (1, 3):
        assert np.array_equal(automorphism(p, r).limbs,
                              automorphism(whole, r).limbs)


def test_rows_that_do_not_tile_are_refused():
    """Rows of lengths that do not divide one another, or the ring
    degree, are refused."""
    rng = np.random.default_rng(157)
    odd = random_poly(BASIS64, 24, rng)
    full = random_poly(BASIS64, 64, rng)
    for call in (lambda: rp_add(full, odd), lambda: rp_mul_sum([(full, odd)]),
                 lambda: odd.widened(), lambda: odd.coeffs(),
                 lambda: rp_add(random_poly(BASIS64, 16, rng), odd)):
        with pytest.raises(BasisMismatchError, match="tile"):
            call()


def test_rep_conversion_roundtrip_bitwise():
    """Coefficient limbs into a polynomial and back out, word for word."""
    rng = np.random.default_rng(71)
    limbs = random_poly(BASIS64, 64, rng).limbs
    assert np.array_equal(from_coeffs(BASIS64, limbs).coeffs(), limbs)


def test_elementwise_ops_match_crt_oracle():
    rng = np.random.default_rng(73)
    a = random_poly(BASIS64, 64, rng)
    b = random_poly(BASIS64, 64, rng)
    big = BASIS64.modulus
    av = oracle_crt(a.coeffs(), [pm.q for pm in BASIS64], centered=False)
    bv = oracle_crt(b.coeffs(), [pm.q for pm in BASIS64], centered=False)
    got_add = crt_reconstruct(rp_add(a, b))
    assert list(got_add) == [centered_mod(x + y, big) for x, y in zip(av, bv)]
    got_sub = crt_reconstruct(rp_sub(a, b))
    assert list(got_sub) == [centered_mod(x - y, big) for x, y in zip(av, bv)]
    got_neg = crt_reconstruct(rp_neg(a))
    assert list(got_neg) == [centered_mod(-x, big) for x in av]


def test_ring_product_matches_negacyclic_oracle():
    rng = np.random.default_rng(79)
    a = random_poly(BASIS64, 64, rng)
    b = random_poly(BASIS64, 64, rng)
    prod = rp_mul(a, b).coeffs()
    for i, pm in enumerate(BASIS64):
        want = oracle_negacyclic(a.coeffs()[i], b.coeffs()[i], pm.q)
        assert np.array_equal(prod[i], np.array(want, dtype=U64))


def test_scalar_multiplies():
    rng = np.random.default_rng(83)
    a = random_poly(BASIS64, 32, rng)
    want = oracle_crt(a.coeffs(), [pm.q for pm in BASIS64], centered=False)
    table = {pm.q: 5 for pm in BASIS64}
    per = rp_scalar_mul_per_limb(a, table)
    assert list(crt_reconstruct(per)) \
        == [centered_mod(5 * x, BASIS64.modulus) for x in want]


def random_stack(basis, n, rng):
    """Two polynomials stacked as limbs shaped (L, 2, N)."""
    return RnsPolynomial(basis, np.stack(
        [random_poly(basis, n, rng).limbs for _ in range(2)], axis=1))


def row(stack, h):
    return RnsPolynomial(stack.basis, stack.limbs[:, h])


def test_stack_ops_equal_per_row_ops():
    """On (L, 2, N) stacks each op equals the op on each row; a (L, N)
    operand meets both rows, in either order and in any pair of a sum."""
    rng = np.random.default_rng(131)
    s, t = random_stack(BASIS64, 64, rng), random_stack(BASIS64, 64, rng)
    p = random_poly(BASIS64, 64, rng)
    ops = [
        (lambda x, y, q: rp_add(x, y), (s, t, p)),
        (lambda x, y, q: rp_sub(x, q), (s, t, p)),
        (lambda x, y, q: rp_sub(q, y), (s, t, p)),
        (lambda x, y, q: rp_neg(x), (s, t, p)),
        (lambda x, y, q: rp_mul(x, q), (s, t, p)),
        (lambda x, y, q: rp_mul(q, y), (s, t, p)),
        (lambda x, y, q: rp_mul_sum([(q, q), (x, q), (q, y), (x, y)]),
         (s, t, p)),
        (lambda x, y, q: automorphism(x, 3), (s, t, p)),
    ]
    for k, (op, (x, y, q)) in enumerate(ops):
        out = op(x, y, q)
        assert out.limbs.shape == (len(BASIS64), 2, 64), k
        for h in (0, 1):
            assert np.array_equal(out.limbs[:, h],
                                  op(row(x, h), row(y, h), q).limbs), (k, h)


def test_single_polynomial_routines_refuse_a_stack():
    rng = np.random.default_rng(137)
    s = random_stack(BASIS64, 64, rng)
    assert s.n == 64
    table = make_base_table(BASIS64, AUX64)
    for call in (lambda: base_convert(s.limbs, table),
                 lambda: crt_float(s.coeffs(), s.basis),
                 lambda: crt_reconstruct(s)):
        with pytest.raises(BasisMismatchError, match="stack"):
            call()


def test_mismatched_operands_rejected():
    rng = np.random.default_rng(89)
    a = random_poly(BASIS64, 32, rng)
    b = random_poly(AUX64, 32, rng)
    with pytest.raises(BasisMismatchError):
        rp_add(a, b)


# ---------------------------------------------------------------------------
# Base conversion.

def test_base_table_entries_match_big_products():
    """The inverse factors, and per target prime the 2S + 1 pair
    multipliers phat_j, 2^32 phat_j and -P_src mod q_i, with their biased
    float64 quotients, against big-integer products."""
    table = make_base_table(BASIS64, AUX64)
    assert isinstance(table, BaseTable)
    assert make_base_table(BASIS64, AUX64) is table
    p_src = BASIS64.modulus
    phats = [p_src // pj.q for pj in BASIS64]
    for j, (phat, pj) in enumerate(zip(phats, BASIS64)):
        inv = pow(phat % pj.q, -1, pj.q)
        assert int(table.inv_factors[j]) == inv
        assert int(table.inv_shoup[j]) == (inv << 64) // pj.q
    assert table.factors.shape == table.quotients.shape == (len(AUX64), 7)
    for i, qi in enumerate(AUX64):
        want = ([ph % qi.q for ph in phats]
                + [(ph << 32) % qi.q for ph in phats] + [-p_src % qi.q])
        assert [int(f) for f in table.factors[i]] == want
        assert table.quotients[i].tolist() == [
            float(Fraction(f, qi.q) * (1 - Fraction(1, 1 << 44)))
            for f in want]


def test_bconv_rounding_limit_is_what_the_bias_covers():
    """`base_convert`'s rounding argument in exact rationals: at
    BCONV_ROUNDINGS roundings of u = 2^-53 each, the bias 1 - 2^-44 keeps
    the estimate at most the quotient, and above it less one for every
    quotient below (BCONV_ROUNDINGS - 1) 2^32, the most K pairs of 32-bit
    words give."""
    u, d = Fraction(1, 1 << 53), Fraction(1, 1 << 44)
    r = rnspoly_module.BCONV_ROUNDINGS
    assert r == 1 << 9
    assert (1 + u) ** r * (1 - d) <= 1
    assert (1 - (1 - u) ** r * (1 - d)) * (r - 1) * (1 << 32) < 1


def test_base_table_refuses_a_source_past_the_rounding_limit(monkeypatch):
    monkeypatch.setattr(rnspoly_module, "BCONV_ROUNDINGS", 2 * 3 + 1)
    with pytest.raises(ConfigurationError, match="roundings"):
        make_base_table.__wrapped__(BASIS64, AUX64)


def adversarial_columns(src, rng):
    """Source columns whose every word takes each of 0, floor(p_j / 2),
    floor(p_j / 2) + 1 and p_j - 1, in every combination across the
    source: once as the input word and once as the step-1 residue v_j,
    where the borrow flips.  Then a few random columns."""
    qs = src.qs
    p_src = src.modulus
    edges = [(0, q // 2, q // 2 + 1, q - 1) for q in qs]
    combos = np.array(list(itertools.product(*edges)), dtype=object).T
    # v_j = x_j phat_j^-1 mod p_j, so x_j = v_j phat_j mod p_j.
    as_v = np.array([[int(v) * (p_src // q) % q for v in row]
                     for row, q in zip(combos, qs)], dtype=object)
    rand = np.array([rng.integers(0, q, 16, dtype=np.uint64) for q in qs],
                    dtype=object)
    return np.concatenate([combos, as_v, rand], axis=1).astype(U64)


def bconv_formula(coeffs, src, tgt):
    """out_i = sum_j v_j phat_j - b P_src mod q_i in big integers, with
    v_j = x_j phat_j^-1 mod p_j and b the count of v_j > p_j / 2."""
    p_src = src.modulus
    out = []
    for col in coeffs.T:
        v = [int(x) * pow(p_src // q % q, -1, q) % q
             for x, q in zip(col, src.qs)]
        borrow = sum(vj > q // 2 for vj, q in zip(v, src.qs))
        total = sum(vj * (p_src // q) for vj, q in zip(v, src.qs))
        total -= borrow * p_src
        out.append([total % q for q in tgt.qs])
    return np.array(out, dtype=U64).T


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("case", ["moddown7", "moddown1", "piece_to_b",
                                  "piece0", "rescale", "mod_raise"])
def test_base_convert_is_the_formula_at_adversarial_words(case, block,
                                                          params,
                                                          monkeypatch):
    """Bit for bit against the big-integer formula, at every source word on
    0, the borrow edge floor(p_j / 2) and floor(p_j / 2) + 1, and p_j - 1:
    wide to narrow (ModDown, B to C_l), narrow to wide (a 40-bit digit
    piece to B), mixed (piece 0 with the 59-bit q0, to the rest) and one
    prime (the rescale of q_l, the `mod_raise` of q0).  With 64-word
    blocks the columns also cross block edges."""
    if block:
        monkeypatch.setattr(rnspoly_module, "_BCONV_BLOCK_WORDS", block)
    chain, b = modulus_chain(params), basis_b(params)
    src, tgt = {
        "moddown7": (b, basis_c(params, 7)),
        "moddown1": (b, basis_c(params, 1)),
        "piece_to_b": (LimbBasis(chain[4:8]), b),
        "piece0": (LimbBasis(chain[:4]), LimbBasis(chain[4:]).concat(b)),
        "rescale": (LimbBasis(chain[7:8]), basis_c(params, 6)),
        "mod_raise": (LimbBasis(chain[:1]), LimbBasis(chain[1:]).concat(b)),
    }[case]
    coeffs = adversarial_columns(src, np.random.default_rng(151))
    got = base_convert(coeffs, make_base_table(src, tgt))
    assert np.array_equal(got, bconv_formula(coeffs, src, tgt))


@pytest.mark.parametrize("n", [64, 1024])
def test_base_convert_matches_crt_with_slack(n):
    """Output equals the exact value plus k * P_src, |k| <= |src|/2 + 1."""
    two_n = 2 * n
    src = make_basis(40, 4, two_n)
    tgt = make_basis(59, 5, two_n, skip=tuple(p.q for p in src))
    table = make_base_table(src, tgt)
    rng = np.random.default_rng([97, n])
    for _ in range(3):
        coeffs = random_poly(src, n, rng).limbs
        out = base_convert(coeffs, table)
        want = oracle_crt(coeffs, [pm.q for pm in src])
        got = oracle_crt(out, [pm.q for pm in tgt])
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
    with pytest.raises(BasisMismatchError):
        base_convert(random_poly(tgt, 64, np.random.default_rng(1)).limbs,
                     table)


@pytest.mark.parametrize("level", [7, 1])
@pytest.mark.parametrize("source", ["piece", "B", "q0", "q_l"])
def test_convert_limbs_matches_per_row_base_convert(source, level, params):
    """One stacked (S, R, N) conversion into the complement of the source
    within C_level + B gives the words of R single conversions, and each
    equals the row's coefficients through `base_convert` and the forward
    transform."""
    full = basis_d(params, level)
    chain = modulus_chain(params)
    src = {"piece": LimbBasis(chain[:min(params.alpha, level + 1)]),
           "B": basis_b(params), "q0": LimbBasis(chain[:1]),
           "q_l": LimbBasis(chain[level:level + 1])}[source]
    tgt = LimbBasis(tuple(pm for pm in full if pm not in src.primes))
    rng = np.random.default_rng([113, level])
    rows = [random_poly(src, params.n_ring, rng) for _ in range(3)]
    stacked = convert_limbs(np.stack([r.limbs for r in rows], axis=1), src,
                            tgt)
    assert stacked.shape == (len(tgt), 3, params.n_ring)
    table = make_base_table(src, tgt)
    for r, row in enumerate(rows):
        assert np.array_equal(stacked[:, r], convert_limbs(row.limbs, src,
                                                           tgt)), r
        want = transform_limbs(base_convert(row.coeffs(), table), tgt,
                               "forward")
        assert np.array_equal(stacked[:, r], want), r


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
        lhs = automorphism(rp_mul(a, b), r)
        rhs = rp_mul(automorphism(a, r), automorphism(b, r))
        assert np.array_equal(lhs.limbs, rhs.limbs)
        prod = [oracle_negacyclic(x, y, pm.q)
                for x, y, pm in zip(a.coeffs(), b.coeffs(), BASIS64)]
        assert np.array_equal(lhs.coeffs(),
                              oracle_automorphism(prod, r, BASIS64.qs))


def test_automorphism_reps_agree_bitwise():
    """The evaluation-word permutation is the signed monomial permutation
    of the coefficients, for full rows and for a one-period polynomial."""
    rng = np.random.default_rng(127)
    p = random_poly(BASIS64, 64, rng)
    q = period(subring_coeffs(8, rng))
    for r in (1, 2, 9):
        for x in (p, q):
            assert np.array_equal(
                automorphism(x, r).coeffs(),
                oracle_automorphism(x.coeffs(), r, BASIS64.qs)), r


def test_automorphism_explicit_monomial_map():
    """psi_r sends X^i to +-X^(i * 5^r mod N) with negacyclic sign."""
    n = 64
    basis = make_basis(40, 1, 2 * n)
    pm = basis.primes[0]
    r = 1
    for i in (0, 1, 5, 40, 63):
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[i] = 1
        p = RnsPolynomial(basis, lift_int_coeffs(coeffs, basis))
        out = crt_reconstruct(automorphism(p, r))
        e = (i * pow(5, r, 2 * n)) % (2 * n)
        want = [0] * n
        want[e % n] = -1 if e >= n else 1
        assert [centered_mod(int(x), pm.q) for x in out] == want
