"""Negacyclic and cyclic transforms against convolution oracles."""

import importlib
import tracemalloc

import numpy as np
import pytest

from oracles import oracle_cyclic, oracle_negacyclic
from rnsckks.ckks import CkksParams, aux_chain, modulus_chain
from rnsckks.errors import ConfigurationError
from rnsckks.modmath import (U64, PrimeModulus, barrett_mul,
                             generate_ntt_primes)
from rnsckks.ntt import (bit_reverse_permutation, cyclic_ntt, four_step_ntt,
                         get_tables, ntt)

ntt_module = importlib.import_module("rnsckks.ntt")

# The chain's widest primes, where lazy butterfly words come closest to
# 2^64, and the widest prime whose butterflies take the float64 quotient.
DESK = CkksParams()
WIDE = {"base59": modulus_chain(DESK)[0], "aux60": aux_chain(DESK)[0]}


def prime_for(n, bits=40, index=0):
    qs = generate_ntt_primes(bits, index + 1, 2 * n)
    return PrimeModulus(qs[index], 2 * n)


def modulus(n, width):
    if width in WIDE:
        return WIDE[width]
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
    *widths_param((16, 1024, 8192), ("q46", "base59", "aux60"))])
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
    *widths_param((16, 256), ("q46", "base59", "aux60"))])
def test_convolution_theorem_vs_quadratic_oracle(n, width):
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


def test_cyclic_convolution_vs_oracle():
    n = 64
    pm = prime_for(n * 2)       # root order 256 covers a 64-point cyclic
    psi = pow(pm.root, pm.two_n // n, pm.q)
    rng = np.random.default_rng(43)
    a = rng.integers(0, pm.q, n, dtype=np.uint64)
    b = rng.integers(0, pm.q, n, dtype=np.uint64)
    fa = cyclic_ntt(a, pm, "forward", psi)
    fb = cyclic_ntt(b, pm, "forward", psi)
    prod = cyclic_ntt(barrett_mul(fa, fb, pm), pm, "inverse", psi)
    assert np.array_equal(prod, np.array(oracle_cyclic(a, b, pm.q),
                                         dtype=U64))


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
    n, pm = 1 << 10, prime_for(1 << 10)
    rng = np.random.default_rng(47)
    for i in range(1000):
        v = rng.integers(0, pm.q, n, dtype=np.uint64)
        direction = "forward" if i % 2 == 0 else "inverse"
        assert np.array_equal(four_step_ntt(v, pm, direction),
                              ntt(v, pm, direction))


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
