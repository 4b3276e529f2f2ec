"""Transform plans, grouped-rotation execution, and the bootstrap pipeline."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rnsckks.ckks import (basis_c, encode, encrypt, make_rotation_keys,
                          modulus_chain, slot_values)
from rnsckks.embedding import packed_to_slots
from rnsckks.errors import (ConfigurationError, MissingKeyError,
                            SeedRangeError)
from rnsckks.hdft import (DFT, IDFT, DftPlan, EvkUsageLog, PlanStage,
                          bootstrap, build_dft_plan, diag_apply, diag_product,
                          hdft_apply, make_plaintext_seed, merge_factors,
                          mod_raise, of_limb_extend, radix2_factor)
from rnsckks.ntt import bit_reverse_permutation
from rnsckks.rnspoly import (EVAL, LimbBasis, base_convert, make_base_table,
                             poly_from_int_coeffs)


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


def random_message(params, rng):
    return (rng.uniform(-1, 1, params.n_slots)
            + 1j * rng.uniform(-1, 1, params.n_slots))


def stage_matrix(st: PlanStage, k: int) -> dict:
    bound = (1 << k) - 1
    return {(di - bound) * st.g: vec
            for di, vec in enumerate(st.diags) if vec is not None}


def plan_reference(plan: DftPlan, v: np.ndarray) -> np.ndarray:
    """Numeric effect of the plan on one transform-sized slot block."""
    for st in plan.stages:
        v = diag_apply(stage_matrix(st, plan.k), v)
    return v


# ---------------------------------------------------------------------------
# Diagonal factor algebra (pure numerics).

@pytest.mark.parametrize("n", [16, 64])
def test_merged_butterflies_equal_packed_transform(n):
    rng = np.random.default_rng([31, n])
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    lengths = [1 << (a + 1) for a in range(n.bit_length() - 1)]
    fwd = merge_factors(n, lengths, inverse=False)
    got = diag_apply(fwd, x[bit_reverse_permutation(n)])
    assert np.allclose(got, packed_to_slots(x), atol=1e-9)
    inv = merge_factors(n, lengths[::-1], inverse=True)
    got = diag_apply(inv, packed_to_slots(x))[bit_reverse_permutation(n)]
    assert np.allclose(got, x, atol=1e-9)


def test_inverse_factor_inverts_forward():
    n = 16
    rng = np.random.default_rng(37)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    for length in (2, 4, 16):
        f = radix2_factor(n, length, inverse=False)
        b = radix2_factor(n, length, inverse=True)
        assert np.allclose(diag_apply(b, diag_apply(f, x)), x, atol=1e-12)


def test_diag_product_keeps_structural_offsets():
    n = 8
    a = {2: np.arange(n, dtype=complex)}
    b = {n - 1: np.ones(n, dtype=complex)}
    prod = diag_product(a, b)
    # 2 + (n-1) stays structural instead of folding to offset 1.
    assert set(prod) == {n + 1}
    rng = np.random.default_rng(41)
    x = rng.normal(size=n)
    assert np.allclose(diag_apply(prod, x),
                       diag_apply(a, diag_apply(b, x)), atol=1e-12)


# ---------------------------------------------------------------------------
# Plan construction.

def test_plan_shapes_and_strides(params):
    inv = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    assert inv.iterations == 3
    assert [st.g for st in inv.stages] == [16, 4, 1]
    assert [st.level for st in inv.stages] == [7, 6, 5]
    assert all(len(st.diags) == 7 for st in inv.stages)
    fwd = build_dft_plan(params, DFT, size=64, k=2, split=(1, 2))
    assert [st.g for st in fwd.stages] == [1, 4, 16]
    assert [st.level for st in fwd.stages] == [3, 2, 1]
    assert fwd.const_scale == params.scale
    assert inv.const_scale == 1 << (params.q0_bits - 4)


def test_plan_residual_bookkeeping(params):
    """Grouped stages leave (2^k - 1) * g each; the sum closes the cycle."""
    inv = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    assert [st.minks_roll for st in inv.stages] == [48, 60, 63]
    assert inv.stages[-1].minks_roll == inv.size - 1  # +1 fix-up completes
    fwd = build_dft_plan(params, DFT, size=64, k=2, split=(1, 2))
    assert [st.minks_roll for st in fwd.stages] == [4, 16, 0]
    assert fwd.stages[-1].minks_roll == 0


def test_required_steps_inventory(params):
    inv = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    assert inv.required_steps("baseline") == [1, 2, 4, 6, 8, 16, 24, 32,
                                              48, 60]
    assert inv.required_steps("minks") == [1, 2, 4, 8, 16, 32]
    assert inv.required_steps("minks-oflimb") == [1, 2, 4, 8, 16, 32]


def test_plan_validation_errors(params):
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=48)
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=2 * params.n_ring)
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, "sideways", size=64)
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=4)   # 6 % 4 != 0
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(2, 2))
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(3, 0))
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2),
                       levels=[7, 6])
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2),
                       levels=[7, 5, 4])
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2),
                       levels=[2, 1, 0])


def test_stage_constants_cached(params):
    plan = build_dft_plan(params, DFT, size=16, k=2, split=(1, 2),
                          levels=[3, 2])
    first = plan.stage_constants("minks")
    assert plan.stage_constants("minks") is first
    assert plan.stage_constants("baseline") is not first


# ---------------------------------------------------------------------------
# Executed transforms.

@pytest.fixture(scope="module")
def idft_runs(params, sk, message_plans, message_keys):
    """One IDFT pass per variant over the same ciphertext, with logs."""
    inv, _ = message_plans
    rng = np.random.default_rng(43)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    runs = {}
    for variant in ("baseline", "minks", "minks-oflimb"):
        log = EvkUsageLog()
        out = hdft_apply(params, ct.copy(), inv, message_keys, variant, log)
        runs[variant] = (out, log)
    # The encoded message tiles across the slot space, so one
    # transform-sized block of the reference covers the readable slots.
    expected = plan_reference(inv, v)
    return v, expected, runs


def test_variants_agree_with_numeric_reference(params, sk, idft_runs):
    _, expected, runs = idft_runs
    base = slot_values(params, runs["baseline"][0], sk)
    mks = slot_values(params, runs["minks"][0], sk)
    assert rel_error(base, expected) < params.budgets.multiply
    assert rel_error(mks, expected) < (params.budgets.multiply
                                       * params.budgets.rotate_factor)
    assert rel_error(mks, base) < params.budgets.multiply


def test_grouped_variants_bit_identical(idft_runs):
    runs = idft_runs[2]
    a = runs["minks"][0]
    b = runs["minks-oflimb"][0]
    assert np.array_equal(a.c0.limbs, b.c0.limbs)
    assert np.array_equal(a.c1.limbs, b.c1.limbs)
    assert a.scale == b.scale and a.level == b.level


def test_transform_scale_and_level_ledger(params, message_plans, idft_runs):
    inv, _ = message_plans
    out = idft_runs[2]["minks"][0]
    assert out.level == inv.stages[-1].level - 1
    scale = Fraction(1 << 40)
    chain = modulus_chain(params)
    for st in inv.stages:
        scale = scale * inv.const_scale / chain[st.level].q
    assert out.scale == scale


def test_key_loads_per_iteration(message_plans, idft_runs):
    inv, _ = message_plans
    stages = range(len(inv.stages))
    base_log = idft_runs[2]["baseline"][1]
    assert base_log.loads_by_stage("idft") == {s: 5 for s in stages}
    for variant in ("minks", "minks-oflimb"):
        log = idft_runs[2][variant][1]
        assert log.loads_by_stage("idft") == {s: 2 for s in stages}
        # Baby chain: 1 load; giant fold: 1 load + k2-rectangle reuses;
        # the closing stride-1 fix-up reuses the last stage's baby key.
        assert log.loads("idft") == 2 * len(inv.stages)
        assert log.reuses("idft") == 2 * len(inv.stages) + 1


def test_baseline_logs_scheduled_noops(idft_runs):
    log = idft_runs[2]["baseline"][1]
    noops = [e for e in log.entries if e.op == "hrot" and not e.performed]
    # Stage g=16 schedules -64 and +64: both reduce to zero physically
    # yet still consume their key loads.
    assert len(noops) == 2
    assert all(e.amount % 64 == 0 for e in noops)
    assert log.rotation_ops("idft") == sum(
        1 for e in log.entries if e.op == "hrot") - 2


def test_pmult_counts_match_diagonal_population(message_plans, idft_runs):
    inv, _ = message_plans
    populated = sum(sum(1 for d in st.diags if d is not None)
                    for st in inv.stages)
    for variant in ("baseline", "minks", "minks-oflimb"):
        assert idft_runs[2][variant][1].pmult_ops("idft") == populated


def test_roundtrip_restores_message(params, sk, message_plans, message_keys):
    inv, fwd = message_plans
    rng = np.random.default_rng(47)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    mid = hdft_apply(params, ct, inv, message_keys, "minks")
    out = hdft_apply(params, mid, fwd, message_keys, "minks")
    assert out.level == fwd.stages[-1].level - 1
    assert rel_error(slot_values(params, out, sk),
                     v) < params.budgets.bootstrap


def test_apply_rejects_level_mismatch(params, sk, message_plans,
                                      message_keys):
    inv, _ = message_plans
    rng = np.random.default_rng(53)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=4), sk, rng)
    with pytest.raises(ConfigurationError):
        hdft_apply(params, ct, inv, message_keys, "minks")
    with pytest.raises(ConfigurationError):
        hdft_apply(params, ct, inv, message_keys, "sideways")


def test_apply_requires_keys(params, sk, message_plans):
    inv, _ = message_plans
    rng = np.random.default_rng(59)
    ct = encrypt(params, encode(params, random_message(params, rng)), sk, rng)
    with pytest.raises(MissingKeyError):
        hdft_apply(params, ct, inv, {}, "minks")
    with pytest.raises(MissingKeyError):
        hdft_apply(params, ct, inv, {}, "baseline")


# ---------------------------------------------------------------------------
# Rotation schedules through hdft_apply.

@pytest.fixture(scope="module")
def chain_plan(params, sk):
    """An IDFT plan (size 64, k=3, split (2, 2)) and its minks keys."""
    plan = build_dft_plan(params, IDFT, size=64, k=3, split=(2, 2))
    keys = make_rotation_keys(params, sk, plan.required_steps("minks"),
                              np.random.default_rng([7, 6]))
    return plan, keys


@pytest.fixture(scope="module")
def minks_chain_run(params, sk, chain_plan):
    """One minks IDFT pass over the chain plan, with its log."""
    plan, keys = chain_plan
    rng = np.random.default_rng(61)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    log = EvkUsageLog()
    out = hdft_apply(params, ct, plan, keys, "minks", log)
    return plan, v, out, log


def test_chained_rotations_share_one_key(minks_chain_run):
    """Per stage: baby amounts g, 2g, ..., (2^k1 - 1) g under id g, then
    giant amounts G under id G; each id loads once per stage and every
    later rotation under it is a reuse. The pass closes with one stride-1
    fix-up that reuses the last stage's baby key."""
    plan, _, _, log = minks_chain_run
    big = 1 << plan.k1
    for s, st in enumerate(plan.stages):
        rots = [(e.amount, e.evk_id, e.kind) for e in log.entries
                if e.op == "hrot" and e.stage == s]
        gee = big * st.g
        want = [(i * st.g, st.g, "load" if i == 1 else "reuse")
                for i in range(1, big)] \
            + [(gee, gee, "load")] \
            + [(gee, gee, "reuse")] * ((1 << plan.k2) - 2)
        if s == len(plan.stages) - 1:
            want.append((1, 1, "reuse"))
        assert rots == want
        assert log.loads_by_stage(IDFT)[s] == 2


def test_rotate_accumulate_matches_naive_sum(params, sk, minks_chain_run):
    """The baby chain and Horner giant fold give, stage by stage, the naive
    sum of every populated diagonal times the slots rolled by its offset."""
    plan, v, out, log = minks_chain_run
    want = v
    for st in plan.stages:
        want = sum(vec * np.roll(want, -off)
                   for off, vec in stage_matrix(st, plan.k).items())
    assert rel_error(slot_values(params, out, sk), want) \
        < params.budgets.multiply * params.budgets.rotate_factor
    assert log.pmult_ops(IDFT) == sum(
        sum(1 for d in st.diags if d is not None) for st in plan.stages)


def test_oflimb_widens_one_giant_row_at_a_time(params, sk, chain_plan):
    """With the constants built beforehand, an OF-Limb pass holds at most
    one giant row of widened plaintexts, 2^k1 (l+1) N words, beyond what
    the min-KS pass holds, and both passes give the same limbs and log."""
    plan, keys = chain_plan
    rng = np.random.default_rng(67)
    ct = encrypt(params, encode(params, random_message(params, rng)), sk, rng)
    runs = []
    for variant in ("minks", "minks-oflimb"):
        plan.stage_constants(variant)
        log = EvkUsageLog()
        tracemalloc.start()
        try:
            out = hdft_apply(params, ct, plan, keys, variant, log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        runs.append((out, log, peak))
    (a, log_a, peak_a), (b, log_b, peak_b) = runs
    row = (1 << plan.k1) * (plan.stages[0].level + 1) * params.n_ring * 8
    assert row == 2 << 20
    assert peak_b - peak_a <= row
    assert np.array_equal(a.c0.limbs, b.c0.limbs)
    assert np.array_equal(a.c1.limbs, b.c1.limbs)
    assert log_a.entries == log_b.entries


@pytest.mark.parametrize("variant", ["baseline", "minks", "minks-oflimb"])
def test_empty_giant_row_matches_reference(params, sk, rot_keys, variant):
    """A giant row with no populated diagonal adds nothing, and the minks
    fold still rotates past it."""
    plan = build_dft_plan(params, DFT, size=4, k=2, split=(1, 2),
                          levels=[params.levels])
    st = plan.stages[0]
    # Row i2 = 1 of both rectangles: diagonals 1, 2 for the baseline,
    # 2, 3 for minks.
    st.diags[1] = st.diags[2] = st.diags[3] = None
    rng = np.random.default_rng(71)
    v = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    ct = encrypt(params, encode(params, np.resize(v, params.n_slots)), sk,
                 rng)
    log = EvkUsageLog()
    out = hdft_apply(params, ct, plan, rot_keys, variant, log)
    want = diag_apply(stage_matrix(st, plan.k), v)
    got = slot_values(params, out, sk)
    assert rel_error(got, np.resize(want, params.n_slots)) \
        < params.budgets.multiply * params.budgets.rotate_factor
    assert log.pmult_ops() == 4
    if variant != "baseline":
        giants = [e for e in log.entries if e.op == "hrot" and e.evk_id == 2]
        assert len(giants) == (1 << plan.k2) - 1


def test_center_only_stage_multiplies_in_place(params, sk):
    """A stage holding only the central diagonal costs one constant
    multiply and no rotations under every variant."""
    rng = np.random.default_rng(73)
    size = 64
    diag = rng.normal(size=size) + 1j * rng.normal(size=size)
    bound = (1 << 2) - 1
    diags = [None] * (2 * bound + 1)
    diags[bound] = diag
    stage = PlanStage(g=1, level=params.levels, diags=diags, minks_roll=0,
                      center_only=True)
    plan = DftPlan(params=params, direction=DFT, size=size, k=2, k1=1, k2=2,
                   incoming_residual=0, const_scale=params.scale,
                   stages=[stage])
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    for variant in ("baseline", "minks", "minks-oflimb"):
        log = EvkUsageLog()
        out = hdft_apply(params, ct.copy(), plan, {}, variant, log)
        assert rel_error(slot_values(params, out, sk),
                         v * diag) < params.budgets.multiply
        assert log.rotation_ops() == 0 and log.loads() == 0
        assert log.pmult_ops(DFT) == 1
        assert out.level == params.levels - 1


# ---------------------------------------------------------------------------
# Seeded constants.

def test_seed_extension_is_bit_exact(params):
    rng = np.random.default_rng(79)
    q0 = modulus_chain(params)[0].q
    coeffs = rng.integers(-(q0 // 2), q0 // 2, params.n_ring)
    seed = make_plaintext_seed(params, coeffs, 1 << 40, tag="probe")
    assert seed.tag == "probe"
    assert seed.scale == Fraction(1 << 40)
    for level in (0, 3, params.levels):
        pt = of_limb_extend(params, seed, level)
        direct = poly_from_int_coeffs(coeffs, basis_c(params, level),
                                      rep=EVAL)
        assert np.array_equal(pt.poly.limbs, direct.limbs)
        assert pt.level == level
        assert pt.slots == params.n_ring // 2


def test_seed_range_guard(params):
    q0 = modulus_chain(params)[0].q
    coeffs = np.zeros(params.n_ring, dtype=np.int64)
    coeffs[0] = (q0 + 1) // 2
    with pytest.raises(SeedRangeError):
        make_plaintext_seed(params, coeffs, 1 << 40)
    make_plaintext_seed(params, coeffs - 1, 1 << 40)  # boundary fits
    make_plaintext_seed(params, 1 - coeffs, 1 << 40)  # and its negative
    with pytest.raises(SeedRangeError):
        make_plaintext_seed(params, -coeffs, 1 << 40)
    # -2^63 is its own absolute value in int64; the guard must see it.
    coeffs[0] = np.iinfo(np.int64).min
    with pytest.raises(SeedRangeError):
        make_plaintext_seed(params, coeffs, 1 << 40)
    # Fractional and non-finite coefficients are rejected, not truncated.
    for bad in (0.7, np.nan, np.inf):
        with pytest.raises(SeedRangeError):
            make_plaintext_seed(params, np.full(params.n_ring, bad), 1 << 40)


def test_oflimb_constants_reject_non_finite_rows(params):
    plan = build_dft_plan(params, DFT, size=16, k=2, split=(1, 2),
                          levels=[3, 2])
    stage = plan.stages[0]
    first = next(i for i, d in enumerate(stage.diags) if d is not None)
    stage.diags[first] = np.full_like(stage.diags[first], np.nan)
    for _ in range(2):      # nothing half-built is cached either
        with pytest.raises(ConfigurationError):
            plan.stage_constants("minks-oflimb")


# ---------------------------------------------------------------------------
# Modulus raise and the bootstrap loop.

def test_mod_raise_congruence(params, sk):
    """Raised plaintext = original + q0 * I with I small and integral."""
    from rnsckks.ckks import decrypt
    from rnsckks.rnspoly import crt_reconstruct
    rng = np.random.default_rng(83)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v, level=0), sk, rng)
    raised = mod_raise(params, ct)
    assert raised.level == params.levels
    assert raised.scale == ct.scale
    q0 = modulus_chain(params)[0].q
    low = crt_reconstruct(decrypt(params, ct, sk).poly.to_coeff())
    high = crt_reconstruct(decrypt(params, raised, sk).poly.to_coeff())
    worst = 0
    for lo, hi in zip(low, high):
        quot, rem = divmod(hi - lo, q0)
        assert rem == 0
        worst = max(worst, abs(quot))
    assert 0 < worst <= params.n_ring


def test_mod_raise_is_centered_base_conversion(params, sk):
    """The raised limbs are those of the evaluation-rep base conversion
    from q0: to coefficients, convert, back to evaluation."""
    rng = np.random.default_rng(97)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=0), sk, rng)
    q0 = basis_c(params, 0)
    for level in (1, 3, params.levels):
        raised = mod_raise(params, ct, level)
        rest = LimbBasis(basis_c(params, level).primes[1:])
        table = make_base_table(q0, rest)
        for got, low in ((raised.c0, ct.c0), (raised.c1, ct.c1)):
            want = base_convert(low.to_coeff(), table).to_eval()
            assert got.basis == basis_c(params, level)
            assert np.array_equal(got.limbs[0], low.limbs[0])
            assert np.array_equal(got.limbs[1:], want.limbs)


def test_mod_raise_level_guards(params, sk):
    rng = np.random.default_rng(89)
    ct = encrypt(params, encode(params, random_message(params, rng)), sk, rng)
    with pytest.raises(ConfigurationError):
        mod_raise(params, ct)               # not at level 0
    low = encrypt(params, encode(params, random_message(params, rng),
                                 level=0), sk, rng)
    with pytest.raises(ConfigurationError):
        mod_raise(params, low, 0)


def test_bootstrap_returns_to_usable_level(params, sk, boot_plans,
                                           bootstrap_run):
    v, ct_in, out, _ = bootstrap_run
    assert ct_in.level == 0
    assert out.level == boot_plans[1].stages[-1].level - 1
    assert out.slots == params.n_slots
    assert rel_error(slot_values(params, out, sk),
                     v) < params.budgets.bootstrap


def test_bootstrap_key_traffic(boot_plans, bootstrap_run):
    """Both passes hold two switching keys per iteration; the fix-up
    rotations ride on keys their stages already loaded."""
    log = bootstrap_run[3]
    inv, fwd = boot_plans
    assert log.loads(IDFT) == 2 * len(inv.stages)
    assert log.loads(DFT) == 2 * len(fwd.stages)
    assert log.loads_by_stage(IDFT) == {s: 2 for s in range(len(inv.stages))}
    assert log.loads_by_stage(DFT) == {s: 2 for s in range(len(fwd.stages))}


def test_bootstrap_rejects_swapped_plans(params, sk, message_plans,
                                         message_keys):
    inv, fwd = message_plans
    rng = np.random.default_rng(101)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=0), sk, rng)
    with pytest.raises(ConfigurationError):
        bootstrap(params, ct, sk, message_keys, rng, plans=(fwd, inv))
