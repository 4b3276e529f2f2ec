"""Word-level modular arithmetic against 128-bit integer oracles."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import oracle_is_prime
from rnsckks.errors import ConfigurationError
from rnsckks import modmath
from rnsckks.modmath import (FLOAT_PAIRS, SMALL_WORD, U64, PrimeModulus,
                             barrett_mul, barrett_reduce128,
                             generate_ntt_primes, is_prime, mod_add, mod_neg,
                             mod_sub, mul128, mul_sum, mulhi,
                             shoup_companions, shoup_estimate, shoup_halves,
                             shoup_mul, shoup_mul_lazy)

PRIMES = [PrimeModulus(q, 1 << 14)
          for q in generate_ntt_primes(40, 2, 1 << 14)
          + generate_ntt_primes(59, 1, 1 << 14)
          + generate_ntt_primes(60, 1, 1 << 14)]


def boundary_and_random(pm, rng, count=2000):
    edge = np.array([0, 1, 2, pm.q // 2, pm.q - 2, pm.q - 1], dtype=U64)
    rand = rng.integers(0, pm.q, count, dtype=np.uint64)
    return np.concatenate([edge, rand])


def test_generated_primes_are_ntt_friendly():
    for bits in (40, 59, 60):
        for q in generate_ntt_primes(bits, 3, 1 << 14):
            assert oracle_is_prime(q)
            assert q.bit_length() == bits
            assert q % (1 << 14) == 1


def test_generate_primes_skip_list_respected():
    first = generate_ntt_primes(40, 2, 256)
    more = generate_ntt_primes(40, 2, 256, skip=tuple(first))
    assert not set(first) & set(more)


def test_prime_modulus_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        PrimeModulus(1 << 20, 256)          # even
    with pytest.raises(ConfigurationError):
        PrimeModulus((1 << 63) + 1, 0)      # too wide
    # Primes stop below 2^61, where the NTT's 8q word bound reaches 2^64:
    # the narrowest prime q = 1 mod 2^14 above it, and wider requests.
    wider = next(q for q in range((1 << 61) + 1, 1 << 62, 1 << 14)
                 if is_prime(q))
    with pytest.raises(ConfigurationError, match="< 2\\^61"):
        PrimeModulus(wider, 1 << 14)
    for bits in (62, 63):
        with pytest.raises(ConfigurationError, match="2..61"):
            generate_ntt_primes(bits, 1, 1 << 14)
    with pytest.raises(ConfigurationError):
        PrimeModulus(97, 256)               # 97 != 1 mod 256
    with pytest.raises(ConfigurationError):
        PrimeModulus(97, 0)                 # no root order
    with pytest.raises(ConfigurationError):
        PrimeModulus(193, 24)               # 193 = 1 mod 24, not a power of 2


def test_prime_modulus_refuses_a_composite(time_limit):
    """2^41 + 1 is 1 mod 2^41 and a multiple of 3: a root search over it
    need not end, so it is refused before any search."""
    q = (1 << 41) + 1
    assert not oracle_is_prime(q)
    with time_limit(10):
        with pytest.raises(ConfigurationError, match="not prime"):
            PrimeModulus(q, 128)


def test_prime_modulus_root_has_order_two_n():
    pm = PRIMES[0]
    assert pow(pm.root, pm.two_n, pm.q) == 1
    assert pow(pm.root, pm.two_n // 2, pm.q) == pm.q - 1


def test_mul128_matches_big_integers():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 1 << 64, 4000, dtype=np.uint64)
    b = rng.integers(0, 1 << 64, 4000, dtype=np.uint64)
    hi, lo = mul128(a, b)
    for x, y, h, l in zip(a[:200], b[:200], hi[:200], lo[:200]):
        full = int(x) * int(y)
        assert (int(h) << 64) | int(l) == full
    assert np.array_equal(mulhi(a, b), hi)


@pytest.mark.parametrize("pm", PRIMES, ids=lambda p: f"q{p.bit_width}")
def test_both_reduction_strategies_match_oracle(pm):
    rng = np.random.default_rng([13, pm.q % 1000])
    a = boundary_and_random(pm, rng)
    b = boundary_and_random(pm, rng)
    want = np.array([(int(x) * int(y)) % pm.q for x, y in zip(a, b)],
                    dtype=U64)
    assert np.array_equal(barrett_mul(a, b, pm), want)


def test_barrett_reduce128_on_wide_inputs():
    pm = PRIMES[2]
    rng = np.random.default_rng(19)
    # T < q * 2^64 is the documented domain.
    t = [int(rng.integers(0, 1 << 62, dtype=np.uint64)) << 64
         | int(rng.integers(0, 1 << 64, dtype=np.uint64))
         for _ in range(256)]
    t = [x % (pm.q << 64) for x in t]
    hi = np.array([x >> 64 for x in t], dtype=U64)
    lo = np.array([x & ((1 << 64) - 1) for x in t], dtype=U64)
    got = barrett_reduce128(hi, lo, pm)
    assert np.array_equal(got, np.array([x % pm.q for x in t], dtype=U64))


def test_additive_ops_match_oracle():
    pm = PRIMES[1]
    rng = np.random.default_rng(23)
    a = boundary_and_random(pm, rng, 500)
    b = boundary_and_random(pm, rng, 500)
    assert np.array_equal(
        mod_add(a, b, pm),
        np.array([(int(x) + int(y)) % pm.q for x, y in zip(a, b)], dtype=U64))
    assert np.array_equal(
        mod_sub(a, b, pm),
        np.array([(int(x) - int(y)) % pm.q for x, y in zip(a, b)], dtype=U64))
    assert np.array_equal(
        mod_neg(a, pm),
        np.array([(-int(x)) % pm.q for x in a], dtype=U64))


def test_barrett_mul_scalar_broadcast():
    pm = PRIMES[0]
    a = np.arange(16, dtype=U64)
    c = np.array(3, dtype=U64)
    assert np.array_equal(barrett_mul(a, c, pm),
                          np.array([(3 * i) % pm.q for i in range(16)],
                                   dtype=U64))


# The largest prime of each width, from a few bits to the 61-bit cap,
# around the widths where the float quotient estimate and Barrett's narrow
# high word switch on or off.
WIDTHS = (5, 31, 33, 40, 46, 47, 48, 49, 59, 60, 61)


def widest_prime(bits):
    return PrimeModulus(generate_ntt_primes(bits, 1, 2)[0], 2)


def words_below(bound, rng, count=3000):
    """Words in [0, bound), both ends included."""
    edge = np.array([0, 1, bound // 2, bound - 2, bound - 1], dtype=U64)
    return np.concatenate([edge, rng.integers(0, bound, count,
                                              dtype=np.uint64)])


@pytest.mark.parametrize("bits", WIDTHS)
def test_shoup_estimates_match_oracle(bits):
    """The partial-product quotient takes any 64-bit word; the float64 one
    any word below 2^48.  The bare partial-product estimate lands in
    [0, 4q); both lazy products land in [0, 2q), for one multiplier over a
    row and for an (R, 1) column of multipliers over a row (the mixed-radix
    lift's shape).  `shoup_mul` reduces canonical words a < q canonically
    in those shapes and for one word over a row of multipliers, taking the
    float64 quotient itself for primes of at most 48 bits."""
    rng = np.random.default_rng([83, bits])
    pm = widest_prime(bits)
    q = U64(pm.q)
    ws = [0, 1, pm.q - 1, int(rng.integers(0, pm.q))]
    for w in ws:
        w_shoup = U64((w << 64) // pm.q)
        for small, bound in ((False, 1 << 64), (True, SMALL_WORD)):
            a = words_below(bound, rng)
            want = [int(x) * w % pm.q for x in a]
            lazy = shoup_mul_lazy(a, U64(w), w_shoup, q, small=small)
            assert all(int(r) % pm.q == x and int(r) < 2 * pm.q
                       for r, x in zip(lazy, want))
            if not small:
                est = shoup_estimate(a, U64(w), *shoup_halves(w_shoup), q)
                assert all(int(r) % pm.q == x and int(r) < 4 * pm.q
                           for r, x in zip(est, want))
    col = np.array(ws, dtype=U64)[:, None]
    col_shoup = np.array([(w << 64) // pm.q for w in ws], dtype=U64)[:, None]
    for small, bound in ((False, 1 << 64), (True, SMALL_WORD)):
        a = words_below(bound, rng, 500)
        want = np.array([[int(x) * w % pm.q for x in a] for w in ws],
                        dtype=U64)
        lazy = shoup_mul_lazy(a, col, col_shoup, q, small=small)
        assert lazy.shape == want.shape
        assert all(int(r) % pm.q == int(x) and int(r) < 2 * pm.q
                   for r, x in zip(lazy.ravel(), want.ravel()))
    for w in ws:
        a = words_below(pm.q, rng)
        got = shoup_mul(a, U64(w), U64((w << 64) // pm.q), pm)
        assert got.tolist() == [int(x) * w % pm.q for x in a]
    a = words_below(pm.q, rng, 500)
    want = np.array([[int(x) * w % pm.q for x in a] for w in ws], dtype=U64)
    assert np.array_equal(shoup_mul(a, col, col_shoup, pm), want)
    assert np.array_equal(shoup_mul(a[-1], col[:, 0], col_shoup[:, 0], pm),
                          want[:, -1])



@pytest.mark.parametrize("bits", WIDTHS)
def test_shoup_companions_match_oracle(bits):
    """The bulk companion is floor(w * 2^64 / q) for words across [0, q),
    both ends included, and for the words w = k 2^-64 mod q, whose
    remainder w 2^64 mod q is k: there the estimate falls one short at
    every width from 33 bits up, and the remainder test corrects it."""
    rng = np.random.default_rng([97, bits])
    pm = widest_prime(bits)
    short = [k * pow(1 << 64, -1, pm.q) % pm.q for k in (1, 2, 3)]
    w = np.concatenate([words_below(pm.q, rng),
                        np.array(short, dtype=U64)])
    assert shoup_companions(w, pm).tolist() == [(int(x) << 64) // pm.q
                                                for x in w]


@pytest.mark.parametrize("bits", WIDTHS)
def test_barrett_reduces_any_128_bit_word(bits):
    rng = np.random.default_rng([89, bits])
    pm = widest_prime(bits)
    hi, lo = words_below(1 << 64, rng), words_below(1 << 64, rng)
    rng.shuffle(lo)
    got = barrett_reduce128(hi, lo, pm)
    want = [((int(h) << 64) | int(l)) % pm.q for h, l in zip(hi, lo)]
    assert np.array_equal(got, np.array(want, dtype=U64))


@pytest.mark.parametrize("bits", WIDTHS)
def test_mul_sum_matches_oracle(bits):
    """Sums long enough to pass 2^128 at the widest moduli are folded."""
    rng = np.random.default_rng([97, bits])
    pm = widest_prime(bits)
    pairs = [(words_below(pm.q, rng, 500), words_below(pm.q, rng, 500))
             for _ in range(20)]
    want = [sum(int(a[i]) * int(b[i]) for a, b in pairs) % pm.q
            for i in range(len(pairs[0][0]))]
    assert np.array_equal(mul_sum(pairs, pm), np.array(want, dtype=U64))


def float_quotient_within_one(k):
    """`_mul_sum_float`'s rounding argument in exact rationals: k + 2
    roundings of at most u = 2^-53 each against the low bias 1 - 16u keep
    the estimate at most the quotient, and above it less one for any
    quotient below 2^48."""
    u = Fraction(1, 1 << 53)
    bias = 1 - 16 * u
    upper = (1 + u) ** (k + 2) * bias
    lower = (1 - u) ** (k + 2) * bias
    return upper <= 1 and (1 - lower) * (1 << 48) < 1


def test_float_pair_limit_is_the_largest_the_rounding_allows():
    assert modmath._LOW_BIAS == 1 - 2.0 ** -49
    assert all(float_quotient_within_one(k)
               for k in range(1, FLOAT_PAIRS + 1))
    assert not float_quotient_within_one(FLOAT_PAIRS + 1)


def widest_prime_below(bound):
    q = bound - 1 if bound % 2 == 0 else bound
    while not is_prime(q):
        q -= 2
    return PrimeModulus(q, 2)


@pytest.mark.parametrize("k", range(1, FLOAT_PAIRS + 2))
def test_mul_sum_float_path_at_every_pair_count(k, monkeypatch):
    """At every pair count up to the limit, with the widest prime that
    keeps k * q <= 2^48 and with a 40-bit scale prime, sums of words
    q - 1 and of random words match big integers, and they take the
    float64 quotient; one pair more takes the 128-bit path."""
    calls = []
    float_path = modmath._mul_sum_float

    def counted(pairs, mod):
        calls.append(len(pairs))
        return float_path(pairs, mod)

    monkeypatch.setattr(modmath, "_mul_sum_float", counted)
    rng = np.random.default_rng([101, k])
    for pm in (widest_prime_below(SMALL_WORD // k + 1), PRIMES[0]):
        assert k * pm.q <= SMALL_WORD
        top = np.full(64, pm.q - 1, dtype=U64)
        for pairs in ([(top, top)] * k,
                      [(words_below(pm.q, rng, 2000),
                        words_below(pm.q, rng, 2000)) for _ in range(k)]):
            want = [sum(int(a[i]) * int(b[i]) for a, b in pairs) % pm.q
                    for i in range(len(pairs[0][0]))]
            assert np.array_equal(mul_sum(pairs, pm),
                                  np.array(want, dtype=U64))
    assert calls == ([k] * 4 if k <= FLOAT_PAIRS else [])
