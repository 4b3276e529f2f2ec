"""Negacyclic transforms, flat and four-step, against convolution oracles."""

import builtins
import importlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import oracle_negacyclic
from rnsckks.ckks import CkksParams, aux_chain, modulus_chain
from rnsckks.errors import ConfigurationError
from rnsckks.modmath import (U64, PrimeModulus, barrett_mul,
                             generate_ntt_primes, is_prime)
from rnsckks.ntt import (bit_reverse_permutation, four_step_ntt, get_tables,
                         ntt)

ntt_module = importlib.import_module("rnsckks.ntt")
modmath_module = importlib.import_module("rnsckks.modmath")

# The chain's widest primes, whose butterflies take the wide kernel.
DESK = CkksParams()
WIDE = {"base59": modulus_chain(DESK)[0], "aux60": aux_chain(DESK)[0]}
# The edge of the signed kernel at n = 2^13, among primes q = 1 mod 2^14:
# the widest prime it takes, where signed words come closest to the
# bound, and the narrowest one above, which takes the wide kernel.  "q61"
# is the largest q < 2^61 with q = 1 mod 2^14, where the wide kernel's
# words come closest to 2^64 under its 8q bound.
EDGE = {"admit": 228587578195969, "refuse": 228587579228161,
        "q61": 2305843009213317121}


def prime_for(n, bits=40, index=0):
    qs = generate_ntt_primes(bits, index + 1, 2 * n)
    return PrimeModulus(qs[index], 2 * n)


def modulus(n, width):
    if width in WIDE:
        return WIDE[width]
    if width in EDGE:
        return PrimeModulus(EDGE[width], 1 << 14)
    return prime_for(n, bits=int(width[1:]))


def edge_inputs(n, q):
    """All q - 1, then single deltas of q - 1 and 1 at both ends and the
    middle: the largest words every stage sees, and sparse inputs whose
    transforms are single powers of the root."""
    yield np.full(n, q - 1, dtype=U64)
    for pos in (0, 1, n // 2, n - 1):
        for val in (q - 1, 1):
            v = np.zeros(n, dtype=U64)
            v[pos] = val
            yield v


def widths_param(sizes, widths):
    return [pytest.param(n, w, id=f"{n}-{w}") for w in widths for n in sizes]


def test_bit_reverse_permutation_is_involution():
    for n in (2, 8, 64, 1024):
        perm = bit_reverse_permutation(n)
        assert np.array_equal(perm[perm], np.arange(n))


@pytest.mark.parametrize("n,width", [
    *(pytest.param(n, "q40", id=str(n)) for n in (16, 64, 256, 1024, 8192)),
    *widths_param((16, 1024, 8192),
                  ("q46", "base59", "aux60", "q61", "admit", "refuse"))])
def test_roundtrip_identity(n, width):
    pm = modulus(n, width)
    rng = np.random.default_rng([31, n])
    v = rng.integers(0, pm.q, n, dtype=np.uint64)
    for x in (v, *edge_inputs(n, pm.q)):
        assert np.array_equal(ntt(ntt(x, pm, "forward"), pm, "inverse"), x)
        assert np.array_equal(ntt(ntt(x, pm, "inverse"), pm, "forward"), x)


def test_linearity():
    n = 256
    for width in ("q40", "q46", "base59", "aux60"):
        pm = modulus(n, width)
        rng = np.random.default_rng(37)
        a = rng.integers(0, pm.q, n, dtype=np.uint64)
        b = rng.integers(0, pm.q, n, dtype=np.uint64)
        c = np.array(int(rng.integers(1, pm.q)), dtype=U64)
        lhs = ntt((barrett_mul(a, c, pm) + b) % U64(pm.q), pm, "forward")
        rhs = (barrett_mul(ntt(a, pm, "forward"), c, pm)
               + ntt(b, pm, "forward")) % U64(pm.q)
        assert np.array_equal(lhs, rhs), width


@pytest.mark.parametrize("n,width", [
    *(pytest.param(n, "q40", id=str(n)) for n in (16, 64, 256)),
    *widths_param((16, 256),
                  ("q46", "base59", "aux60", "q61", "admit", "refuse"))])
def test_convolution_theorem_vs_quadratic_oracle(n, width):
    """Both directions against the quadratic oracle: the inverse of the
    product of two forward transforms is the negacyclic product of the
    coefficient rows, and the forward transform of the negacyclic product
    of two inverse transforms is the product of the evaluation rows."""
    pm = modulus(n, width)
    rng = np.random.default_rng([41, n])
    a = rng.integers(0, pm.q, n, dtype=np.uint64)
    b = rng.integers(0, pm.q, n, dtype=np.uint64)
    edges = list(edge_inputs(n, pm.q))
    for x, y in ((a, b), (edges[0], edges[0]), (edges[0], b),
                 *((e, a) for e in edges[1:])):
        prod = ntt(barrett_mul(ntt(x, pm, "forward"), ntt(y, pm, "forward"),
                               pm), pm, "inverse")
        assert np.array_equal(prod, np.array(oracle_negacyclic(x, y, pm.q),
                                             dtype=U64))
        conv = oracle_negacyclic(ntt(x, pm, "inverse"), ntt(y, pm, "inverse"),
                                 pm.q)
        assert np.array_equal(ntt(np.array(conv, dtype=U64), pm, "forward"),
                              barrett_mul(x, y, pm))


def test_kernel_per_prime_class():
    """The scale primes take the signed kernel, the base and auxiliary
    primes the wide one, and the edge primes fall on either side of the
    predicate with no prime q = 1 mod 2^14 between them."""
    n = DESK.n_ring
    assert all(get_tables(pm, n).signed for pm in modulus_chain(DESK)[1:])
    assert not any(get_tables(pm, n).signed
                   for pm in (modulus_chain(DESK)[0], *aux_chain(DESK)))
    assert get_tables(modulus(n, "admit"), n).signed
    assert not get_tables(modulus(n, "refuse"), n).signed
    assert not any(is_prime(q) for q in range(EDGE["admit"] + (1 << 14),
                                              EDGE["refuse"], 1 << 14))


def test_signed_product_stays_below_its_bound():
    """The signed kernel's product leaves |r| < q (1 + |a| 2^-52) for
    |a| < 2^52.  (The wide kernel's product is `modmath.shoup_estimate`,
    tested against its oracle there.)"""
    pm = prime_for(8, 40)
    q = pm.q
    rng = np.random.default_rng([89, 40])
    s = np.concatenate([np.array([0, 1, -1, (1 << 52) - 1, 1 - (1 << 52)]),
                        rng.integers(1 - (1 << 52), 1 << 52, 3000)])
    for w in (1, q - 1, int(rng.integers(1, q))):
        r = ntt_module._signed_mul(s, np.int64(w), w / float(q),
                                   np.int64(q))
        assert all(abs(int(x)) * (1 << 52) < q * ((1 << 52) + abs(int(y)))
                   and (int(x) - int(y) * w) % q == 0
                   for x, y in zip(r, s))


def signed_word_bounds(q, n, reduce):
    """Every word bound of a signed forward and inverse transform, stage by
    stage in exact rationals, from the error model alone: a float64
    estimate x * fl(c) has relative error at most e = 2^-52 + 2^-106, so a
    product or reduction of a word of magnitude at most B is below
    q (1 + B e).  `reduce` marks the inverse stages whose sum path is
    reduced.  Returns (forward bounds, inverse bounds); the last of each
    is what the final canonical pass reads."""
    e = Fraction(2, 1 << 53) + Fraction(1, 1 << 106)

    def product(bound):
        return q * (1 + bound * e)

    fwd, bound = [], Fraction(q - 1)
    for _ in range(n.bit_length() - 1):
        fwd.append(bound)                   # hi, into the product
        bound += product(bound)             # lo +- r
    fwd.append(bound)
    inv, bound = [], Fraction(q - 1)
    for cut in reduce:
        diff = 2 * bound                    # lo - hi into the product
        inv.append(diff)
        total = product(diff) if cut else diff
        bound = max(product(diff), total)
    inv.append(total)                       # the sum path times 1/n
    inv.append(max(product(diff), product(total)))
    return fwd, inv


def fits(bound):
    """Quotient estimates of words this large are off by less than one."""
    return bound * (Fraction(2, 1 << 53) + Fraction(1, 1 << 106)) < 1


@pytest.mark.parametrize("n", [16, 1024, 8192])
def test_signed_kernel_stays_within_its_word_bound(n):
    """Every prime the signed predicate admits keeps each word bound of
    both directions, recomputed here, under the bound the float64
    estimates need; past the edge prime the forward bound breaks."""
    primes = [*modulus_chain(DESK), *aux_chain(DESK),
              *(modulus(n, w) for w in EDGE),
              *(prime_for(n, bits) for bits in (20, 30, 40, 44, 46, 47, 48,
                                                49, 50, 59, 61))]
    admitted = 0
    for pm in primes:
        t = get_tables(pm, n)
        if not t.signed:
            continue
        admitted += 1
        fwd, inv = signed_word_bounds(pm.q, n,
                                      [st[2] for st in t.inv_stages])
        assert all(map(fits, fwd + inv)), pm.q
    assert admitted >= 8
    fwd, _ = signed_word_bounds(EDGE["refuse"], DESK.n_ring, [False] * 13)
    assert not fits(fwd[-1])


def test_long_inverse_relies_on_its_marked_reductions():
    """At n = 2^16 and the widest signed prime there, the inverse's sum
    path over words q - 1 would pass 2^63 unless the stages the table
    marks reduce it; the round trips stay exact."""
    n, q = 1 << 16, 187421848109057
    pm = PrimeModulus(q, 2 * n)
    t = get_tables(pm, n)
    assert t.signed and any(st[2] for st in t.inv_stages)
    assert n * (q - 1) >= 1 << 63
    rng = np.random.default_rng(83)
    for x in (np.full(n, q - 1, dtype=U64),
              rng.integers(0, q, n, dtype=np.uint64)):
        assert np.array_equal(ntt(ntt(x, pm, "inverse"), pm, "forward"), x)
        assert np.array_equal(ntt(ntt(x, pm, "forward"), pm, "inverse"), x)


def wide_word_bounds(q, n):
    """Every word the wide kernel stores, stage by stage, as an exclusive
    bound in Python integers: the inputs of each Shoup estimate and every
    butterfly output.  Asserts the kernel's own conditions on the way: a
    reduction by cap = 4q takes words below 2 cap = 8q, and a product,
    below 4q, is at most cap, so lo - r + cap does not wrap below zero.
    Returns (forward words, inverse words); the last of each is what the
    final canonical pass reads."""
    cap = prod = 4 * q
    fwd, word = [], q - 1
    for _ in range(n.bit_length() - 1):
        assert word <= 2 * cap
        lo = min(word, cap)                 # lo reduced by cap
        fwd += [word, lo + cap, lo + prod]  # hi into the product, outputs
        word = max(lo + cap, lo + prod)
    inv, lo, hi = [], q - 1, q - 1
    for _ in range(n.bit_length() - 1):
        assert hi <= cap and lo + hi <= 2 * cap
        inv += [lo + cap, lo + hi]          # the difference into the product
        lo, hi = min(lo + hi, cap), prod
    inv.append(max(prod, hi))               # lo times 1/n, and hi
    return fwd, inv


@pytest.mark.parametrize("n", [16, 8192])
def test_wide_kernel_stays_below_two_to_the_64(n):
    """Every prime the wide kernel takes keeps each word of both
    directions below 2^64, the forward's below 8q and the inverse's below
    4q, which the canonical pass reduces: the 59-bit base prime, the
    60-bit auxiliary primes and, closest to 2^64, the edge prime q61.  For
    any odd q above 2^61 the 8q bound would pass 2^64, which is why primes
    stop below it."""
    primes = [*modulus_chain(DESK), *aux_chain(DESK),
              *(modulus(n, w) for w in EDGE)]
    admitted = 0
    for pm in primes:
        if get_tables(pm, n).signed:
            continue
        admitted += 1
        fwd, inv = wide_word_bounds(pm.q, n)
        assert max(fwd + inv) <= 1 << 64, pm.q
        assert fwd[-1] <= 8 * pm.q and inv[-1] <= 4 * pm.q
    assert admitted >= 6
    assert max(wide_word_bounds((1 << 61) + 1, n)[0]) > 1 << 64


@pytest.mark.parametrize("width", ["q40", "admit", "refuse", "base59",
                                   "aux60"])
def test_sparse_evaluation_vectors_come_back_canonical(width):
    """Evaluation vectors about 90% zero, through inverse then forward:
    their coefficients and the vectors themselves come back with every
    word below q, where an exact multiple of q at the end of a transform
    must land on 0, not on q."""
    n = DESK.n_ring
    pm = modulus_chain(DESK)[1] if width == "q40" else modulus(n, width)
    rng = np.random.default_rng(71)
    x = rng.integers(0, pm.q, (8, n), dtype=np.uint64)
    x[rng.random(x.shape) < 0.9] = 0
    x[0] = 0
    x[1, :] = 0
    x[1, 5] = pm.q - 1
    coeffs = ntt(x, pm, "inverse")
    assert int(coeffs.max()) < pm.q
    back = ntt(coeffs, pm, "forward")
    assert int(back.max()) < pm.q
    assert np.array_equal(back, x)


@pytest.mark.parametrize("width", ["q40", "q46", "base59", "aux60"])
def test_forward_delta_is_a_root_power(width):
    """out[j] = c * psi^((2j+1) k) for the delta c X^k, straight from the
    definition."""
    n = 1024
    pm = modulus(n, width)
    psi = pow(pm.root, pm.two_n // (2 * n), pm.q)
    for k in (0, 1, n // 2, n - 1):
        for c in (1, pm.q - 1):
            v = np.zeros(n, dtype=U64)
            v[k] = c
            want = [c * pow(psi, (2 * j + 1) * k, pm.q) % pm.q
                    for j in range(n)]
            assert np.array_equal(ntt(v, pm, "forward"),
                                  np.array(want, dtype=U64))


def test_four_step_equals_direct_exhaustive_small():
    """Every delta position at N=16 exercises every twiddle path."""
    n, pm = 16, prime_for(16)
    for pos in range(n):
        for val in (1, 2, pm.q - 1):
            v = np.zeros(n, dtype=U64)
            v[pos] = val
            for direction in ("forward", "inverse"):
                assert np.array_equal(four_step_ntt(v, pm, direction),
                                      ntt(v, pm, direction))
    ones = np.ones(n, dtype=U64)
    assert np.array_equal(four_step_ntt(ones, pm, "forward"),
                          ntt(ones, pm, "forward"))


def test_four_step_equals_direct_randomized_large():
    """Each kernel class runs both passes: the signed one for a 40-bit
    prime, the wide one for the base and auxiliary primes."""
    n = 1 << 12
    rng = np.random.default_rng(47)
    for pm in (prime_for(n), *WIDE.values()):
        for i in range(200):
            v = rng.integers(0, pm.q, n, dtype=np.uint64)
            direction = "forward" if i % 2 == 0 else "inverse"
            assert np.array_equal(four_step_ntt(v, pm, direction),
                                  ntt(v, pm, direction)), (pm.q, i)


def test_batched_rows_equal_per_row():
    n, pm = 128, prime_for(128)
    rng = np.random.default_rng(53)
    mat = rng.integers(0, pm.q, (5, n), dtype=np.uint64)
    batched = ntt(mat, pm, "forward")
    for i in range(5):
        assert np.array_equal(batched[i], ntt(mat[i], pm, "forward"))


@pytest.mark.parametrize("width", ["base59", "q40", "aux60"])
def test_row_blocks_equal_per_row(width):
    """A stack runs through the stages in blocks of BLOCK_WORDS words; at
    row counts around a block edge, and for an (L, R, N) stack, every row
    gets the words a one-row call gives it."""
    n = DESK.n_ring
    pm = modulus_chain(DESK)[1] if width == "q40" else WIDE[width]
    block = ntt_module.BLOCK_WORDS // n
    assert block > 1
    rng = np.random.default_rng(59)
    for rows in (1, block - 1, block, block + 1, 127):
        mat = rng.integers(0, pm.q, (rows, n), dtype=np.uint64)
        for direction in ("forward", "inverse"):
            want = np.stack([ntt(row, pm, direction) for row in mat])
            assert np.array_equal(ntt(mat, pm, direction), want), \
                (rows, direction)
    cube = mat[:3 * (block + 2)].reshape(3, block + 2, n)
    for direction in ("forward", "inverse"):
        want = [[ntt(row, pm, direction) for row in limb] for limb in cube]
        assert np.array_equal(ntt(cube, pm, direction), np.array(want))


def test_row_blocks_bound_the_temporaries():
    """A (64, 8192) stack at the 59-bit q0 holds its 4 MiB result and one
    block's temporaries at a time, not a few times the whole stack."""
    pm = WIDE["base59"]
    mat = np.random.default_rng(61).integers(0, pm.q, (64, DESK.n_ring),
                                             dtype=np.uint64)
    ntt(mat[:1], pm, "forward")          # tables are built once, not here
    tracemalloc.start()
    try:
        ntt(mat, pm, "forward")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_out_takes_the_words_of_a_new_array():
    """`out=` writes the same words `ntt` returns, also over its own input
    and across row blocks, and refuses a buffer it cannot fill in place."""
    pm = WIDE["base59"]
    block = ntt_module.BLOCK_WORDS // DESK.n_ring
    rng = np.random.default_rng(67)
    for rows in (1, block + 1):
        mat = rng.integers(0, pm.q, (rows, DESK.n_ring), dtype=np.uint64)
        for direction in ("forward", "inverse"):
            want = ntt(mat, pm, direction)
            out = np.empty_like(mat)
            assert ntt(mat, pm, direction, out=out) is out
            assert np.array_equal(out, want), (rows, direction)
            same = mat.copy()
            ntt(same, pm, direction, out=same)
            assert np.array_equal(same, want), (rows, direction)
    for bad in (np.empty((2, DESK.n_ring), dtype=np.uint64),
                np.empty((block + 1, DESK.n_ring), dtype=np.int64),
                np.empty((DESK.n_ring, block + 1), dtype=np.uint64).T):
        with pytest.raises(ConfigurationError):
            ntt(mat, pm, "forward", out=bad)


def test_rejects_bad_direction_and_length():
    pm = prime_for(16)
    v = np.zeros(16, dtype=U64)
    with pytest.raises(ConfigurationError):
        ntt(v, pm, "sideways")
    with pytest.raises(ConfigurationError):
        ntt(np.zeros(24, dtype=U64), pm, "forward")


def test_tables_are_cached_per_modulus():
    pm = prime_for(64)
    assert get_tables(pm, 64) is get_tables(pm, 64)


def closed_form_twiddles(pm, n, psi, h, inverse, us):
    """Twiddles u of stage h by direct exponentiation: psi^((2u+1) n/(2h)),
    or psi^-1 to the same powers with 1/n folded in at h = 1."""
    q = pm.q
    base = pow(psi, -1, q) if inverse else psi
    scale = pow(n, -1, q) if inverse and h == 1 else 1
    return [pow(base, (2 * u + 1) * (n // (2 * h)), q) * scale % q for u in us]


def test_tables_match_their_closed_form():
    """Every stage's twiddles and companions, and 1/n's, against direct
    exponentiation: every entry at n = 16 and 128, and at n = 8192 each
    stage's first and last entry and a strided sample, at every desk prime;
    and the widest, the signed edge and the wide edge primes at n = 16.
    The wide kernel stores each Shoup companion as its two 32-bit halves,
    as uint32 except in the few words of the transposed-layout stages."""
    desk = [*modulus_chain(DESK), *aux_chain(DESK)]
    cases = [(n, pm) for n in (16, 128, 8192) for pm in desk]
    cases += [(16, modulus(16, w)) for w in ("q61", "admit", "refuse")]
    for n, pm in cases:
        q = pm.q
        psi = pow(pm.root, pm.two_n // (2 * n), q)
        t = get_tables(pm, n)

        def check(words, want, half=np.uint32):
            if t.signed:
                w, c = words
                assert (w.dtype, c.dtype) == (np.int64, np.float64)
                assert c.tolist() == [x / float(q) for x in want], (n, q)
            else:
                w, c_hi, c_lo = words
                assert (w.dtype, c_hi.dtype, c_lo.dtype) == (U64, half, half)
                assert [(int(h) << 32) | int(lo)
                        for h, lo in zip(c_hi, c_lo)] \
                    == [(x << 64) // q for x in want], (n, q)
            assert [int(x) for x in w] == want, (n, q)

        spans = [1 << k for k in range(n.bit_length() - 1)]
        assert [st[0] for st in t.fwd_stages] == spans
        assert [st[0] for st in t.inv_stages] == spans[::-1]
        # The transposed-layout stages, h < b, widen their halves.
        b = ntt_module._layout(n)[0]
        for inverse, stages in ((False, t.fwd_stages), (True, t.inv_stages)):
            for h, words, _ in stages:
                words = [v.ravel() for v in words]
                assert all(len(v) == h for v in words)
                us = (range(h) if n <= 128 else
                      sorted({0, h - 1, *range(0, h, max(1, h // 32))}))
                check([v[us] for v in words],
                      closed_form_twiddles(pm, n, psi, h, inverse, us),
                      U64 if h < b else np.uint32)
        check([np.array([v]) for v in t.n_inv], [pow(n, -1, q)])


def test_table_build_makes_few_exponentiations(monkeypatch):
    """A fresh 8192-point build reads its twiddles off one power ladder:
    a few exponentiations, not one per twiddle (16,385 per table)."""
    n = 8192
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return builtins.pow(*args)

    for module in (ntt_module, modmath_module):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    for pm in (modulus_chain(DESK)[1], WIDE["aux60"]):      # signed, wide
        psi = pow(pm.root, pm.two_n // (2 * n), pm.q)
        calls.clear()
        ntt_module._build_tables.__wrapped__(pm, n, psi)     # uncached
        assert len(calls) <= 64, (pm.q, len(calls))
