"""Acceptance gate: every figure of record the cost model reproduces and
every end-to-end behavioural guarantee, each with its frozen tolerance and
a wall-clock cap.

The reference numbers quoted here (2.6x/2.0x intensity gains, 11.1/9.6
ops/byte, 88%/78% traffic cuts, 8.61%/13.32% utilization, 73.3% and
54.8%/34.2% kernel shares, 14.3 ns amortized slot time, and the MiB table)
are the published targets this package commits to; the tolerances absorb
scheduling choices the targets leave unspecified.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oracles import oracle_automorphism, oracle_crt, oracle_negacyclic
from rnsckks.ckks import (basis_c, encode, encrypt, hadd, hmult, hrescale,
                          hrot, modulus_chain, pmult, slot_values)
from rnsckks.costmodel import (PROFILES, POLICY_ALTERNATING, POLICY_LIMB_WISE,
                               SCALED_F1, ParamProfile, bootstrap_pass_shapes,
                               data_sizes, distribution_transfer,
                               hdft_pass_cost, keyswitch_mults, tas_metric,
                               utilization_bound)
from rnsckks.errors import SeedRangeError
from rnsckks.hdft import (IDFT, EvkUsageLog, hdft_apply, make_plaintext_seed,
                          of_limb_extend)
from rnsckks.modmath import (U64, PrimeModulus, barrett_mul,
                             generate_ntt_primes)
from rnsckks.ntt import four_step_ntt, ntt
from rnsckks.rnspoly import (LimbBasis, RnsPolynomial, automorphism,
                             base_convert, lift_int_coeffs, make_base_table,
                             rp_mul)

MIB = 1 << 20


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


def within(value, target, tol):
    """|value/target - 1| <= tol, reported readably on failure."""
    assert abs(value / target - 1.0) <= tol, \
        f"{value:.6g} misses {target:.6g} by more than {tol:.0%}"


# ---------------------------------------------------------------------------
# 1. The data-size table, byte-exact in MiB.

def test_published_size_table_is_exact():
    t0 = time.perf_counter()
    expect = {"lattigo": (12.5, 25.0, 150.0),
              "100x": (30.0, 60.0, 240.0),
              "f1": (1.0, 2.0, 34.0),
              "ark": (12.0, 24.0, 120.0)}
    for name, cells in expect.items():
        sizes = data_sizes(PROFILES[name])
        got = (sizes.plaintext_bytes / MIB, sizes.ciphertext_bytes / MIB,
               sizes.evk_bytes / MIB)
        assert got == cells, name
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Analytic transform costs on the wide machine, within 15%.

def test_wide_machine_intensity_and_traffic_targets():
    t0 = time.perf_counter()
    ark = PROFILES["ark"]
    idft, dft = bootstrap_pass_shapes(ark, 5, (3, 3))
    targets = {"idft": (2.6, 11.1, 0.88), "dft": (2.0, 9.6, 0.78)}
    for shape in (idft, dft):
        gain_t, cumulative_t, cut_t = targets[shape.direction]
        base = hdft_pass_cost(shape, ark, "baseline")
        mks = hdft_pass_cost(shape, ark, "minks")
        full = hdft_pass_cost(shape, ark, "minks-oflimb")
        within(mks.ops_per_byte / base.ops_per_byte, gain_t, 0.15)
        within(full.ops_per_byte, cumulative_t, 0.15)
        within(1.0 - full.offchip_bytes / base.offchip_bytes, cut_t, 0.15)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. Multiplier-utilization ceilings on the scaled wide machine, within 20%.

def test_utilization_ceiling_targets():
    t0 = time.perf_counter()
    ark = PROFILES["ark"]
    idft, dft = bootstrap_pass_shapes(ark, 5, (3, 3))
    idft_mults = hdft_pass_cost(idft, ark, "baseline").modular_mults
    dft_mults = hdft_pass_cost(dft, ark, "baseline").modular_mults
    within(utilization_bound(SCALED_F1, 6.4e9, idft_mults), 0.0861, 0.20)
    within(utilization_bound(SCALED_F1, 0.6e9, dft_mults), 0.1332, 0.20)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 4. Key-switch kernel shares, within 3 percentage points.

def test_keyswitch_kernel_share_targets():
    t0 = time.perf_counter()
    f1 = PROFILES["f1"]          # the largest decomposition count in use
    km = keyswitch_mults(f1, f1.L)
    assert abs(km.ntt / km.total - 0.733) <= 0.03
    ark = PROFILES["ark"]
    km = keyswitch_mults(ark, ark.L)
    assert abs(km.ntt / km.total - 0.548) <= 0.03
    assert abs(km.bconv / km.total - 0.342) <= 0.03
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 5. Evaluation-key distribution transfer, exact closed forms.

def test_distribution_transfer_closed_forms():
    custom = ParamProfile("custom", N=1 << 12, L=11, alpha=4,
                          n=64, L_boot=2)
    for p in (PROFILES["lattigo"], PROFILES["100x"], PROFILES["f1"],
              PROFILES["ark"], custom):
        words = (p.alpha + p.L + 1) * p.N
        assert distribution_transfer(p, POLICY_ALTERNATING) \
            == (p.dnum + 2) * words
        assert distribution_transfer(p, POLICY_LIMB_WISE) \
            == 2 * p.dnum * words


# ---------------------------------------------------------------------------
# 6. Scheme correctness over random trials, within the noise budgets.

def test_scheme_operations_hold_budgets_over_100_trials(params, sk, relin,
                                                        rot_keys):
    t0 = time.perf_counter()
    rng = np.random.default_rng([11, 6])
    n = params.n_slots
    budgets = params.budgets
    rot_steps = sorted(rot_keys)

    def fresh_pair():
        v = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        return v, encrypt(params, encode(params, v), sk, rng)

    for trial in range(100):
        v, ct = fresh_pair()
        assert rel_error(slot_values(params, ct, sk), v) < budgets.fresh

        w, dt = fresh_pair()
        got = slot_values(params, hadd(ct, dt), sk)
        assert rel_error(got, v + w) < 2 * budgets.fresh

        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        got = slot_values(params, pmult(ct, encode(params, z)), sk)
        assert rel_error(got, v * z) < budgets.multiply

        prod = hrescale(params, hmult(params, ct, dt, relin))
        assert rel_error(slot_values(params, prod, sk),
                         v * w) < budgets.multiply

        r = rot_steps[trial % len(rot_steps)]
        got = slot_values(params, hrot(params, ct, r, rot_keys[r]), sk)
        assert rel_error(got, np.roll(v, -r)) \
            < budgets.fresh * budgets.rotate_factor
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. Grouped key-switching matches the naive walk with two loads per stage.

def test_grouped_transform_equals_baseline_with_two_loads(params, sk,
                                                          message_plans,
                                                          message_keys):
    t0 = time.perf_counter()
    inv, _ = message_plans
    rng = np.random.default_rng([11, 7])
    v = rng.uniform(-1, 1, params.n_slots) \
        + 1j * rng.uniform(-1, 1, params.n_slots)
    ct = encrypt(params, encode(params, v, level=inv.levels[0]), sk, rng)

    base_log, mks_log = EvkUsageLog(), EvkUsageLog()
    base = hdft_apply(params, ct, inv, message_keys, "baseline", base_log)
    mks = hdft_apply(params, ct, inv, message_keys, "minks", mks_log)
    assert rel_error(slot_values(params, mks, sk),
                     slot_values(params, base, sk)) < 2 * params.budgets.multiply

    for stage, loads in mks_log.loads_by_stage(IDFT).items():
        assert loads == 2, f"stage {stage}"
    # The naive walk loads what the model prices it at, stage by stage.
    base_cost = hdft_pass_cost(inv, ParamProfile.from_params(params),
                               "baseline")
    assert base_log.loads_by_stage(IDFT) == {
        s: st.evk_loads for s, st in enumerate(base_cost.stages)}
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 8. Seeded plaintext extension is bit-exact across the whole chain.

def test_seeded_extension_bit_exact_everywhere(params):
    t0 = time.perf_counter()
    q0 = modulus_chain(params)[0].q
    rng = np.random.default_rng([11, 8])
    half = q0 // 2
    for _ in range(100):
        coeffs = rng.integers(-half, half, params.n_ring)
        seed = make_plaintext_seed(params, coeffs, 1 << 40)
        for level in range(params.levels + 1):
            pt = of_limb_extend(params, {0: seed}, level)[0]
            direct = lift_int_coeffs(coeffs, basis_c(params, level))
            assert np.array_equal(pt.poly.limbs, direct)
    out_of_range = np.full(params.n_ring, (q0 + 1) // 2, dtype=np.int64)
    with pytest.raises(SeedRangeError):
        make_plaintext_seed(params, out_of_range, 1 << 40)
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 9. Kernel oracles: transforms, convolution, base conversion, automorphisms.

def _prime_for(two_n, bits=40, count=1, skip=()):
    qs = generate_ntt_primes(bits, count, two_n, skip=skip)
    return [PrimeModulus(q, two_n) for q in qs]


def test_kernel_oracles():
    t0 = time.perf_counter()

    # Four-step factorization == direct transform: exhaustive deltas at 16.
    pm = _prime_for(32)[0]
    for pos in range(16):
        for val in (1, pm.q - 1):
            v = np.zeros(16, dtype=U64)
            v[pos] = val
            for direction in ("forward", "inverse"):
                assert np.array_equal(four_step_ntt(v, pm, direction),
                                      ntt(v, pm, direction))
    # ... and 1000 random vectors at 1024.
    pm = _prime_for(2048)[0]
    rng = np.random.default_rng([11, 9])
    for i in range(1000):
        v = rng.integers(0, pm.q, 1024, dtype=np.uint64)
        direction = "forward" if i % 2 == 0 else "inverse"
        assert np.array_equal(four_step_ntt(v, pm, direction),
                              ntt(v, pm, direction))

    # Convolution theorem against the quadratic negacyclic oracle.
    for n in (64, 256):
        pm = _prime_for(2 * n)[0]
        a = rng.integers(0, pm.q, n, dtype=np.uint64)
        b = rng.integers(0, pm.q, n, dtype=np.uint64)
        prod = ntt(barrett_mul(ntt(a, pm, "forward"),
                               ntt(b, pm, "forward"), pm), pm, "inverse")
        assert np.array_equal(prod, np.array(oracle_negacyclic(a, b, pm.q),
                                             dtype=U64))

    # Base conversion against big-integer CRT, slack a multiple of the
    # source modulus with |k| bounded by half the source width.
    n = 1 << 10
    src = LimbBasis(tuple(_prime_for(2 * n, count=4)))
    tgt = LimbBasis(tuple(_prime_for(2 * n, bits=59, count=5,
                                     skip=tuple(p.q for p in src))))
    table = make_base_table(src, tgt)
    limbs = np.stack([rng.integers(0, pm.q, n, dtype=np.uint64)
                      for pm in src])
    want = oracle_crt(limbs, [pm.q for pm in src])
    got = oracle_crt(base_convert(limbs, table), [pm.q for pm in tgt])
    big = src.modulus
    for g, w in zip(got, want):
        slack = g - w
        assert slack % big == 0
        assert abs(slack // big) <= len(src) // 2 + 1

    # Automorphisms: ring homomorphism and composition at ring degree 64.
    basis = LimbBasis(tuple(_prime_for(128, count=3)))
    a = RnsPolynomial(basis,
                      np.stack([rng.integers(0, pm.q, 64, dtype=np.uint64)
                                for pm in basis]))
    b = RnsPolynomial(basis,
                      np.stack([rng.integers(0, pm.q, 64, dtype=np.uint64)
                                for pm in basis]))
    for r, s in ((1, 2), (3, 4)):
        lhs = automorphism(rp_mul(a, b), r)
        rhs = rp_mul(automorphism(a, r), automorphism(b, r))
        assert np.array_equal(lhs.limbs, rhs.limbs)
        prod = [oracle_negacyclic(x, y, pm.q)
                for x, y, pm in zip(a.coeffs(), b.coeffs(), basis)]
        assert np.array_equal(lhs.coeffs(),
                              oracle_automorphism(prod, r, basis.qs))
        assert np.array_equal(automorphism(automorphism(a, r), s).limbs,
                              automorphism(automorphism(a, s), r).limbs)
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 10. Full-scale level refresh: message recovered, levels accounted exactly.

def test_level_refresh_recovers_message_and_levels(params, sk, boot_plans,
                                                   bootstrap_run):
    t0 = time.perf_counter()
    v, ct, out, _ = bootstrap_run
    inv, fwd = boot_plans
    got = slot_values(params, out, sk)
    assert rel_error(got, v) < params.budgets.bootstrap

    # Exact ledger: the raise grants inv.levels[0] levels; each stage of
    # either pass consumes one; the reference reduction between the
    # passes re-encodes at the forward plan's entry level.
    iterations = inv.iterations + fwd.iterations
    bookkeeping = (inv.levels[-1] - 1) - fwd.levels[0]
    assert ct.level == 0
    assert out.level == fwd.levels[-1] - 1
    assert inv.levels[0] - out.level == iterations + bookkeeping
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 11. Amortized per-slot multiplication time, exact identities.

def test_amortized_slot_time_identities():
    ark = PROFILES["ark"]
    flat = tas_metric(3.749e-3, lambda lv: 0.0, ark)
    assert abs(flat * 1e9 - 14.3) < 0.05

    ramp = tas_metric(1.0, lambda lv: 0.25 * lv, ark)
    depth = ark.L - ark.L_boot
    total = 1.0 + 0.25 * depth * (depth + 1) / 2
    assert ramp == pytest.approx(total / depth / ark.n, rel=1e-12)

    constant = tas_metric(0.0, lambda lv: 2.0e-6, ark)
    assert constant == pytest.approx(2.0e-6 / ark.n, rel=1e-12)
