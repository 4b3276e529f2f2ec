"""Transform plans, grouped-rotation execution, and the bootstrap pipeline."""

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rnsckks import hdft
from rnsckks.ckks import (CkksParams, EvaluationKey, basis_c, encode,
                          encode_diagonal_batch, encrypt, hadd, keygen,
                          make_rotation_keys, modulus_chain, pmult,
                          slot_values)
from rnsckks.costmodel import PROFILES, VARIANTS, ParamProfile, hdft_pass_cost
from rnsckks.embedding import packed_to_slots
from rnsckks.errors import (BasisMismatchError, ConfigurationError,
                            MissingKeyError, ScaleMismatchError,
                            SeedRangeError)
from rnsckks.hdft import (DFT, IDFT, DftPlan, EvkUsageLog, bootstrap,
                          build_dft_plan, diag_apply, diag_product,
                          hdft_apply, make_plaintext_seed, merge_factors,
                          mod_raise, of_limb_extend, radix2_factor)
from rnsckks.ntt import bit_reverse_permutation
from rnsckks.rnspoly import (LimbBasis, base_convert, convert_limbs,
                             lift_int_coeffs, make_base_table,
                             transform_limbs)


def rel_error(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


def random_message(params, rng):
    return (rng.uniform(-1, 1, params.n_slots)
            + 1j * rng.uniform(-1, 1, params.n_slots))


def stage_matrix(plan: DftPlan, s: int) -> dict:
    bound = (1 << plan.k) - 1
    return {(di - bound) * plan.stride(s): vec
            for di, vec in enumerate(plan.diagonals(s))}


def plan_reference(plan: DftPlan, v: np.ndarray) -> np.ndarray:
    """Numeric effect of the plan on one transform-sized slot block."""
    for s in range(plan.iterations):
        v = diag_apply(stage_matrix(plan, s), v)
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
    assert [inv.stride(s) for s in range(3)] == [16, 4, 1]
    assert inv.levels == (7, 6, 5)
    assert all(len(inv.diagonals(s)) == 7 for s in range(3))
    fwd = build_dft_plan(params, DFT, size=64, k=2, split=(1, 2))
    assert [fwd.stride(s) for s in range(3)] == [1, 4, 16]
    assert fwd.levels == (3, 2, 1)
    assert fwd.const_scale == params.scale
    assert inv.const_scale == 1 << (params.q0_bits - 4)


def test_plan_residual_bookkeeping(params):
    """Grouped stages leave (2^k - 1) * g each; the sum closes the cycle."""
    inv = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    assert [inv.minks_roll(s) for s in range(3)] == [48, 60, 63]
    assert inv.minks_roll(2) == inv.size - 1  # +1 fix-up completes
    fwd = build_dft_plan(params, DFT, size=64, k=2, split=(1, 2))
    assert [fwd.minks_roll(s) for s in range(3)] == [4, 16, 0]
    assert fwd.minks_roll(2) == 0


def test_every_minks_roll_is_closed_by_its_fix_up(params, boot_plans):
    """The roll a grouped pass leaves ends where its one stride-1 fix-up
    closes it: at size - 1 before an IDFT's closing rotation, and at 0
    after a DFT whose input that rotation moved.  A stage outside the
    plan is refused, as `stride` refuses it."""
    for plan in [*_every_plan(params, 256), *boot_plans]:
        last = plan.iterations - 1
        if plan.direction == IDFT:
            assert plan.minks_roll(last) == plan.size - 1
            assert plan.rotations(last, "minks").after == ((1, 1),)
        else:
            assert plan.minks_roll(last) == 0
            assert plan.rotations(0, "minks").before == ((1, 1),)
        for method in (plan.minks_roll, plan.diagonals):
            for s in (-1, plan.iterations):
                with pytest.raises(ConfigurationError, match="out of range"):
                    method(s)


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
        build_dft_plan(params, IDFT, size=64, k=0, split=(1, 1))
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2),
                       levels=[7, 6])
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2),
                       levels=[7, 5, 4])
    with pytest.raises(ConfigurationError):
        build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2),
                       levels=[2, 1, 0])


def test_a_plan_runs_the_shape_it_is_priced_as(params):
    """A plan's stages are derived from its shape, so none can be cut
    apart from its levels: each plan runs one stage per level, and min-KS
    prices two key loads per stage run, one at the wrap stage
    (g = size / 2^k) when k2 = 1, where its giant step is 0."""
    plan = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    with pytest.raises(TypeError):
        replace(plan, stages=())
    with pytest.raises(ConfigurationError):
        replace(plan, levels=plan.levels[:1])
    desk = PROFILES["desk"]
    for plan in _every_plan(params, 256):
        assert hdft_pass_cost(plan, desk, "minks").evk_loads \
            == 2 * plan.iterations - (plan.k2 == 1)


def _every_plan(params, max_size):
    """Every plan build_dft_plan makes up to `max_size` at default levels:
    each size, each k dividing log2(size) in at most `levels` stages, each
    split and both directions."""
    for logn in range(1, max_size.bit_length()):
        for k in range(1, logn + 1):
            if logn % k or logn // k > params.levels:
                continue
            for k1 in range(1, k + 1):
                for direction in (IDFT, DFT):
                    yield build_dft_plan(params, direction, size=1 << logn,
                                         k=k, split=(k1, k + 1 - k1))


def test_every_plan_fills_its_rectangle(params, boot_plans, monkeypatch):
    """Each stage carries all 2^(k+1) - 1 diagonals and every giant row of
    every variant holds a constant: hdft_apply handles no other plan."""
    # Only the cell keys are read, so encoding is skipped.
    monkeypatch.setattr(hdft, "encode_diagonal_batch",
                        lambda params, rows, level, scale: [None] * len(rows))
    monkeypatch.setattr(hdft, "_seed_batch",
                        lambda params, rows, *rest: [None] * len(rows))
    plans = [*_every_plan(params, 256),
             *(replace(plan, _consts={}) for plan in boot_plans)]
    assert len(plans) == 112
    for plan in plans:
        for s in range(plan.iterations):
            diags = plan.diagonals(s)
            assert len(diags) == 2 ** (plan.k + 1) - 1
            assert all(d.shape == (plan.stride(s) << plan.k,) for d in diags)
        for variant in ("baseline", "minks", "minks-oflimb"):
            for cells in plan.stage_constants(variant):
                assert len(cells) == 2 ** (plan.k + 1) - 1
                assert {i2 for _, i2 in cells} == set(range(1 << plan.k2))


def test_stage_constants_cached(params):
    plan = build_dft_plan(params, DFT, size=16, k=2, split=(1, 2),
                          levels=[3, 2])
    first = plan.stage_constants("minks")
    assert plan.stage_constants("minks") is first
    assert plan.stage_constants("baseline") is not first


def test_plan_equality_ignores_cached_constants(params):
    """A plan is its shape and parameters: two built alike compare equal
    and hash alike whichever constants each has cached."""
    a, b = (build_dft_plan(params, IDFT, size=16, k=2, split=(1, 2))
            for _ in range(2))
    a.stage_constants("minks")
    assert a == b and hash(a) == hash(b)
    b.stage_constants("minks")
    assert a == b and hash(a) == hash(b)
    assert a != build_dft_plan(params, IDFT, size=16, k=2, split=(2, 1))


# Digest of the constants of one small IDFT plan: the minks plaintext
# limbs (widened to length N), then each minks-oflimb seed limb (at length
# N) and scale, cell by cell in key order.  A plan is stored nowhere but
# rebuilt from its arguments, so a rewrite of the plan or constant code
# must leave these words as they are.
PINNED_CONSTANTS = "e40a84d0269c072b"


def full_seed_limb(params, seed) -> np.ndarray:
    """A seed's row of M words as the length-N row of the same element of
    Z[X^(N/M)]: its words at stride N/M, zeros between them."""
    n = params.n_ring
    row = np.zeros(n, dtype=np.int64)
    row[::n // len(seed.q0_limb)] = seed.q0_limb
    return row


def test_plan_constants_pinned(params):
    plan = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    h = hashlib.sha256()
    for cells in plan.stage_constants("minks"):
        for key, pt in cells.items():
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(pt.poly.widened().limbs,
                                          "<u8").tobytes())
    for cells in plan.stage_constants("minks-oflimb"):
        for key, seed in cells.items():
            h.update(repr(key).encode())
            h.update(full_seed_limb(params, seed).astype("<i8").tobytes())
            h.update(str(seed.scale).encode())
    assert h.hexdigest()[:16] == PINNED_CONSTANTS


def _arrays(obj):
    """Every ndarray a plan holds, through its cached constants (the
    shared parameters aside; its stages are derived, not held)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            if name != "params":
                yield from _arrays(getattr(obj, name))


def test_oflimb_plans_hold_short_seeds_only(params, oflimb_boot_plans):
    """The full-width pair keeps no complex diagonals once its OF-Limb
    constants exist, and each seed of a g = 1 stage holds its row of 128
    words: 127 seeds of N words and 127 of N/64 per plan."""
    n = params.n_ring
    arrays = list(_arrays(oflimb_boot_plans))
    assert arrays
    assert not any(np.iscomplexobj(a) for a in arrays)
    total = 0
    for plan in oflimb_boot_plans:
        for s, cells in enumerate(plan.stage_constants("minks-oflimb")):
            assert len(cells) == 127
            for seed in cells.values():
                assert len(seed.q0_limb) == (n // 64 if plan.stride(s) == 1
                                             else n)
                total += seed.q0_limb.nbytes
    assert total == 2 * 127 * 8192 * 8 + 2 * 127 * 128 * 8


def test_stage_diagonals_are_one_period_of_the_full_merge(params,
                                                         boot_plans):
    """A stage merges its butterflies, of lengths 2g, ..., 2^k * g
    (reversed for an IDFT), at their period 2^k * g: each diagonal is, bit
    for bit, the first period of the same merge at the full transform
    size."""
    for plan in [*_every_plan(params, 256), *boot_plans]:
        bound = (1 << plan.k) - 1
        for s in range(plan.iterations):
            g = plan.stride(s)
            lengths = [g << (a + 1) for a in range(plan.k)]
            inverse = plan.direction == IDFT
            full = merge_factors(plan.size, lengths[::-1] if inverse
                                 else lengths, inverse)
            period = g << plan.k
            for di, diag in enumerate(plan.diagonals(s)):
                want = full[(di - bound) * g][:period]
                assert diag.shape == (period,)
                assert np.array_equal(diag.view(np.uint64),
                                      want.view(np.uint64))


def test_stage_diagonals_are_rederived(params):
    """A stage re-merges its butterflies on each call: the same words
    every time, in distinct arrays, and the plan keeps none of them."""
    plan = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    for s in range(plan.iterations):
        first, again = plan.diagonals(s), plan.diagonals(s)
        assert not any(np.shares_memory(a, b) for a, b in zip(first, again))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
    plan.stage_constants("minks")
    arrays = list(_arrays(plan))
    assert arrays and not any(np.iscomplexobj(a) for a in arrays)


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
        out = hdft_apply(params, ct, inv, message_keys, variant, log)
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
    assert out.level == inv.levels[-1] - 1
    scale = Fraction(1 << 40)
    chain = modulus_chain(params)
    for level in inv.levels:
        scale = scale * inv.const_scale / chain[level].q
    assert out.scale == scale


def test_key_loads_per_iteration(message_plans, idft_runs):
    inv, _ = message_plans
    stages = range(inv.iterations)
    # The baseline loads 2^1 + 2^2 - 1 keys per stage, bar the wrap stage
    # (g = 16): its pre-rotation and giant 2 are step 0, and giants 1
    # and 3 share step 32.
    base_log = idft_runs[2]["baseline"][1]
    assert base_log.loads_by_stage("idft") == {0: 2, 1: 5, 2: 5}
    for variant in ("minks", "minks-oflimb"):
        log = idft_runs[2][variant][1]
        assert log.loads_by_stage("idft") == {s: 2 for s in stages}
        # Baby chain: 1 load; giant fold: 1 load + k2-rectangle reuses;
        # the closing stride-1 fix-up reuses the last stage's baby key.
        assert log.loads("idft") == 2 * inv.iterations
        assert log.reuses("idft") == 2 * inv.iterations + 1


def _logged_rotations(log, plan):
    return [(e.stage, e.evk_id, e.amount) for e in log.entries
            if e.op == "hrot" and e.transform == plan.direction]


def _listed_rotations(plan, variant):
    return [(s, step, amount) for s in range(plan.iterations)
            for step, amount in plan.rotations(s, variant).flat]


@pytest.mark.parametrize("variant", VARIANTS)
def test_runs_perform_the_listed_rotations(variant, params, message_plans,
                                           message_keys, idft_runs):
    """An IDFT pass and the DFT pass after it log, in order, exactly the
    (stage, step, amount) rotations that `plan.rotations` lists: the
    one schedule that `required_steps` and the cost model read."""
    inv, fwd = message_plans
    out, log = idft_runs[2][variant]
    dft_log = EvkUsageLog()
    hdft_apply(params, out, fwd, message_keys, variant, dft_log)
    assert _logged_rotations(log, inv) == _listed_rotations(inv, variant)
    assert _logged_rotations(dft_log, fwd) == _listed_rotations(fwd, variant)


def test_bootstrap_performs_the_listed_rotations(boot_plans, bootstrap_run):
    log = bootstrap_run[3]
    for plan in boot_plans:
        assert _logged_rotations(log, plan) == _listed_rotations(plan, "minks")


@pytest.fixture(scope="module")
def ring128():
    """A 128-point ring with the desk chain, a secret key and a key for
    every step below 64: a key-usage log is set by the plan's shape
    alone, so this ring runs every plan up to size 64."""
    params = CkksParams(n_ring=128)
    rng = np.random.default_rng([7, 8])
    sk = keygen(params, rng)
    return params, sk, make_rotation_keys(params, sk, range(1, 64), rng)


def _count_expansions(monkeypatch, current_log):
    """`EvaluationKey.expanded` calls counted by the (transform, stage) of
    the rotation that `current_log()` logged last, and the rotations of
    the calls that were not logged as that key's load."""
    counts, stray, real = Counter(), [], EvaluationKey.expanded

    def counting(key):
        last = current_log().entries[-1]    # the rotation that needs the key
        counts[last.transform, last.stage] += 1
        if (last.evk_id, last.kind) != (key.step, "load"):
            stray.append(last)
        return real(key)

    monkeypatch.setattr(EvaluationKey, "expanded", counting)
    return counts, stray


@pytest.mark.parametrize("variant", VARIANTS)
def test_key_expansions_follow_loads(variant, ring128, monkeypatch):
    """Over every plan up to size 64, a stage expands each key it uses
    once: per stage, the log's loads, the keys expanded and the model's
    `StageCost.evk_loads` are one number, under every variant.  Only the
    log and the expansions are read, so the key switch is skipped."""
    params, sk, keys = ring128

    def unswitched(params, ct, r, key):
        assert key.step == r
        return ct

    monkeypatch.setattr(hdft, "hrot", unswitched)
    desk = ParamProfile.from_params(params)
    rng = np.random.default_rng(67)
    logs = []
    expanded, stray = _count_expansions(monkeypatch, lambda: logs[-1])
    plans = list(_every_plan(params, 64))
    assert len(plans) == 66
    for plan in plans:
        logs.append(EvkUsageLog())
        expanded.clear()
        ct = encrypt(params, encode(params, random_message(params, rng),
                                    level=plan.levels[0]), sk, rng)
        hdft_apply(params, ct, plan, keys, variant, logs[-1])
        loads = logs[-1].loads_by_stage(plan.direction)
        cost = hdft_pass_cost(plan, desk, variant)
        for s, st in enumerate(cost.stages):
            assert loads.get(s, 0) == expanded[plan.direction, s] \
                == st.evk_loads, (plan, s)
    assert stray == []


def test_two_passes_log_every_load(ring128, monkeypatch):
    """Two min-KS passes of one size-16 IDFT plan into one log: each pass
    expands both keys of each stage again, and the log counts each
    expansion as a load."""
    params, sk, keys = ring128
    plan = build_dft_plan(params, IDFT, size=16, k=2, split=(1, 2))
    rng = np.random.default_rng(71)
    log = EvkUsageLog()
    expanded, stray = _count_expansions(monkeypatch, lambda: log)
    for _ in range(2):
        ct = encrypt(params, encode(params, random_message(params, rng)),
                     sk, rng)
        hdft_apply(params, ct, plan, keys, "minks", log)
    assert log.loads_by_stage(IDFT) == {0: 4, 1: 4} \
        == {s: n for (_, s), n in expanded.items()}
    assert stray == []


def test_baseline_logs_scheduled_noops(idft_runs):
    """Stage g = 16 schedules -64 and +64, which name step 0: each is
    logged with step 0 and kind "", loads nothing and performs nothing."""
    log = idft_runs[2]["baseline"][1]
    noops = [e for e in log.entries if e.op == "hrot" and e.evk_id == 0]
    assert [(e.stage, e.amount, e.kind) for e in noops] \
        == [(0, -64, ""), (0, 64, "")]
    assert all(e.evk_id != 0 for e in log.entries if e.kind == "load")
    assert log.rotation_ops("idft") == sum(
        1 for e in log.entries if e.op == "hrot") - 2


def test_pmult_counts_match_diagonal_population(message_plans, idft_runs):
    inv, _ = message_plans
    populated = sum(len(inv.diagonals(s)) for s in range(inv.iterations))
    for variant in ("baseline", "minks", "minks-oflimb"):
        assert idft_runs[2][variant][1].pmult_ops("idft") == populated


def test_roundtrip_restores_message(params, sk, message_plans, message_keys):
    inv, fwd = message_plans
    rng = np.random.default_rng(47)
    v = random_message(params, rng)
    ct = encrypt(params, encode(params, v), sk, rng)
    mid = hdft_apply(params, ct, inv, message_keys, "minks")
    out = hdft_apply(params, mid, fwd, message_keys, "minks")
    assert out.level == fwd.levels[-1] - 1
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
    for s in range(plan.iterations):
        rots = [(e.amount, e.evk_id, e.kind) for e in log.entries
                if e.op == "hrot" and e.stage == s]
        g = plan.stride(s)
        gee = big * g
        want = [(i * g, g, "load" if i == 1 else "reuse")
                for i in range(1, big)] \
            + [(gee, gee, "load")] \
            + [(gee, gee, "reuse")] * ((1 << plan.k2) - 2)
        if s == plan.iterations - 1:
            want.append((1, 1, "reuse"))
        assert rots == want
        assert log.loads_by_stage(IDFT)[s] == 2


def test_rotate_accumulate_matches_naive_sum(params, sk, minks_chain_run):
    """The baby chain and Horner giant fold give, stage by stage, the naive
    sum of every populated diagonal times the slots rolled by its offset."""
    plan, v, out, log = minks_chain_run
    want = v
    for s in range(plan.iterations):
        want = sum(np.tile(vec, len(want) // len(vec)) * np.roll(want, -off)
                   for off, vec in stage_matrix(plan, s).items())
    assert rel_error(slot_values(params, out, sk), want) \
        < params.budgets.multiply * params.budgets.rotate_factor
    assert log.pmult_ops(IDFT) == sum(len(plan.diagonals(s))
                                      for s in range(plan.iterations))


@pytest.mark.parametrize("level", [7, 2])
def test_row_sum_equals_pmult_then_hadd(params, sk, level):
    """A giant row's inner sum, one multiply-accumulate per half, has the
    words, scale, level and slots of one pmult per diagonal summed by
    hadd: at 1 and 8 pairs (the float64 quotient on the scale primes),
    at 15 (past its pair limit), and on the 59-bit base prime's 128-bit
    path throughout."""
    rng = np.random.default_rng([73, level])
    babies = [encrypt(params, encode(params, random_message(params, rng),
                                     level=level), sk, rng)
              for _ in range(15)]
    pts = [encode(params, random_message(params, rng), level=level)
           for _ in range(15)]
    for count in (1, 8, 15):
        want = pmult(babies[0], pts[0])
        for ct, pt in zip(babies[1:count], pts[1:count]):
            want = hadd(want, pmult(ct, pt))
        got = hdft._row_sum(babies, dict(enumerate(pts[:count])))
        assert np.array_equal(got.c0.limbs, want.c0.limbs), count
        assert np.array_equal(got.c1.limbs, want.c1.limbs), count
        assert (got.scale, got.level, got.slots) == \
            (want.scale, want.level, want.slots)


def _one_period_row(params, rng, level, periods):
    """Diagonal-batch plaintexts of the given slot periods (None: all
    n_ring/2 slots), each encoded from one period of its slots, and the
    same plaintexts with their rows tiled to N."""
    half = params.n_ring // 2
    row = {}
    for i1, m in enumerate(periods):
        m = m or half
        values = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        (row[i1],) = encode_diagonal_batch(params, values[None], level)
        assert row[i1].poly.n == 2 * m
    tiled = {i1: replace(pt, poly=pt.poly.widened()) for i1, pt in row.items()}
    return row, tiled


@pytest.mark.parametrize("level", [6, 2])
def test_one_period_row_sum_equals_tiled_row(params, sk, level):
    """A giant row of one-period plaintexts (128 words per limb, as a
    g = 1 stage stores them) sums to the words of the same row tiled to
    N, and of one pmult per plaintext summed by hadd."""
    rng = np.random.default_rng([83, level])
    babies = [encrypt(params, encode(params, random_message(params, rng),
                                     level=level), sk, rng)
              for _ in range(8)]
    row, tiled = _one_period_row(params, rng, level, [64] * 8)
    got = hdft._row_sum(babies, row)
    want = pmult(babies[0], row[0])
    for i1 in range(1, 8):
        want = hadd(want, pmult(babies[i1], row[i1]))
    for other in (hdft._row_sum(babies, tiled), want):
        assert np.array_equal(got.poly.limbs, other.poly.limbs)
        assert (got.scale, got.level, got.slots) == \
            (other.scale, other.level, other.slots)


def test_row_sum_widens_mixed_periods(params, sk):
    """Plaintexts of different periods in one row, and full rows beside
    them, give the words of the row tiled to N."""
    rng = np.random.default_rng(89)
    babies = [encrypt(params, encode(params, random_message(params, rng),
                                     level=3), sk, rng)
              for _ in range(4)]
    for periods in ([64, 32, None, 2], [16, 64]):
        row, tiled = _one_period_row(params, rng, 3, periods)
        assert np.array_equal(hdft._row_sum(babies, row).poly.limbs,
                              hdft._row_sum(babies, tiled).poly.limbs)


def test_g1_stage_encodes_without_the_tiled_stack(params, boot_plans):
    """Encoding the min-KS constants of IDFT's g = 1 stage (level 6)
    keeps 127 periods of 128 words per limb, and its peak stays below
    20 MiB: each diagonal is encoded from its 64-slot period, so no
    (127, N) stack of coefficients, nor the 55.6 MiB that the 127
    plaintexts tiled to N would hold, is ever built.  The stage is run
    as the one-stage 64-slot plan, whose stage merges the same
    butterflies and rolls its constants by the same amount mod 64."""
    full = boot_plans[0]
    (s,) = [s for s in range(full.iterations) if full.stride(s) == 1]
    assert full.levels[s] == 6
    one = build_dft_plan(params, IDFT, size=64, k=6, split=(3, 4),
                         levels=[6])
    assert (one.stride(0), one.minks_roll(0) % 64) == \
        (full.stride(s), full.minks_roll(s) % 64)
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(one.diagonals(0), full.diagonals(s),
                               strict=True))
    # Warm the transform tables outside the trace.
    replace(one, _consts={}).stage_constants("baseline")
    tracemalloc.start()
    try:
        (cells,) = one.stage_constants("minks")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tiled = 7 * 127 * params.n_ring * 8
    assert {pt.poly.limbs.shape for pt in cells.values()} == {(7, 128)}
    assert sum(pt.poly.limbs.nbytes for pt in cells.values()) == tiled // 64
    assert peak < 20 << 20


@pytest.mark.parametrize("direction, k, split, lengths", [
    (IDFT, 4, (2, 3), [8192, 512, 32]),
    (DFT, 3, (2, 2), [16, 128, 1024, 8192]),
])
def test_full_width_plans_store_each_stage_at_its_period(
        params, direction, k, split, lengths):
    """Stage s of a full-width plan stores min(N, 2^(k+1) g) words per limb
    for min-KS, and per seed for OF-Limb: its diagonals repeat every
    2^k g slots."""
    plan = build_dft_plan(params, direction, k=k, split=split)
    assert [min(params.n_ring, 2 * len(plan.diagonals(s)[0]))
            for s in range(plan.iterations)] \
        == [min(params.n_ring, (2 << k) * plan.stride(s))
            for s in range(plan.iterations)] \
        == lengths
    minks = plan.stage_constants("minks")
    seeds = plan.stage_constants("minks-oflimb")
    for level, length, pts, cells in zip(plan.levels, lengths, minks, seeds):
        assert {pt.poly.limbs.shape for pt in pts.values()} == \
            {(level + 1, length)}
        assert {len(seed.q0_limb) for seed in cells.values()} == {length}


def test_row_sum_keeps_pmult_and_hadd_checks(params, sk):
    """Products at another level, or at another scale, are refused with
    the errors pmult and hadd raise."""
    rng = np.random.default_rng(79)
    v = random_message(params, rng)
    ct3 = encrypt(params, encode(params, v, level=3), sk, rng)
    ct2 = encrypt(params, encode(params, v, level=2), sk, rng)
    pt3, pt2 = encode(params, v, level=3), encode(params, v, level=2)
    with pytest.raises(BasisMismatchError):
        hdft._row_sum([ct3], {0: pt2})
    with pytest.raises(BasisMismatchError):
        hdft._row_sum([ct3, ct2], {0: pt3, 1: pt2})
    with pytest.raises(ScaleMismatchError):
        hdft._row_sum([ct3, ct3], {0: pt3, 1: encode(params, v, level=3,
                                                     scale=1 << 30)})


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
    row = (1 << plan.k1) * (plan.levels[0] + 1) * params.n_ring * 8
    assert row == 2 << 20
    assert peak_b - peak_a <= row
    assert np.array_equal(a.c0.limbs, b.c0.limbs)
    assert np.array_equal(a.c1.limbs, b.c1.limbs)
    assert log_a.entries == log_b.entries


# ---------------------------------------------------------------------------
# Seeded constants.

def test_seed_extension_is_bit_exact(params):
    """One batch widens a mapping of seeds, each bit-identical to its own
    direct lift, under the same keys and scales."""
    rng = np.random.default_rng(79)
    q0 = modulus_chain(params)[0].q
    coeffs = {key: rng.integers(-(q0 // 2), q0 // 2, params.n_ring)
              for key in ((0, 1), (2, 1), (1, 1))}
    seeds = {key: make_plaintext_seed(params, c, 1 << (40 + key[0]))
             for key, c in coeffs.items()}
    assert seeds[0, 1].scale == Fraction(1 << 40)
    for level in (0, 3, params.levels):
        pts = of_limb_extend(params, seeds, level)
        assert list(pts) == list(seeds)
        for key, pt in pts.items():
            direct = lift_int_coeffs(coeffs[key], basis_c(params, level))
            assert np.array_equal(pt.poly.limbs, direct)
            assert pt.scale == seeds[key].scale
            assert pt.level == level
            assert pt.slots == params.n_ring // 2
    assert of_limb_extend(params, {}, 3) == {}


def test_subring_stages_widen_at_short_length(params, boot_plans, ntt_rows):
    """In the full-width k=6 plans every g = 1 stage's seeds are rows of
    128 words, elements of Z[X^64], so widening any of its giant rows runs
    (level + 1) transforms of 128 points per cell and keeps those 128
    words per limb; a g = 64 stage widens at N points.
    A 64-slot encode transforms at the same 128 points."""
    n = params.n_ring
    for plan in boot_plans:
        consts = replace(plan, _consts={}).stage_constants("minks-oflimb")
        strides = [plan.stride(s) for s in range(plan.iterations)]
        assert sorted(strides) == [1, 64]
        for g, level, cmap in zip(strides, plan.levels, consts):
            for i2 in range(1 << plan.k2) if g == 1 else [3]:
                row = {i1: cmap[i1, i2] for i1 in range(1 << plan.k1)
                       if (i1, i2) in cmap}
                ntt_rows.clear()
                pts = of_limb_extend(params, row, level)
                length = n // 64 if g == 1 else n
                assert ntt_rows == {("forward", length):
                                    (level + 1) * len(row)}, (g, i2)
                assert {pt.poly.limbs.shape for pt in pts.values()} == \
                    {(level + 1, length)}
    ntt_rows.clear()
    encode(params, random_message(params, np.random.default_rng(89))[:64],
           level=7)
    assert ntt_rows == {("forward", n // 64): 8}


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
    # Words past int64 are refused as themselves, not wrapped by a cast
    # (2^64 - 1 would read as -1) or left to raise OverflowError.
    for bad in (np.array([2 ** 64 - 1, 0], dtype=np.uint64), [2 ** 70, 0],
                [-2 ** 70, 0], [1e30, 0]):
        with pytest.raises(SeedRangeError):
            make_plaintext_seed(params, bad, 1 << 40)
    # Fractional, non-finite and non-real coefficients are rejected, not
    # truncated.
    for bad in (0.7, np.nan, np.inf, 1 + 1j, 1j * np.nan):
        with pytest.raises(SeedRangeError):
            make_plaintext_seed(params, np.full(params.n_ring, bad), 1 << 40)
    row = np.arange(params.n_ring) % 7 - 3
    assert np.array_equal(make_plaintext_seed(params, row + 0j, 1 << 40)
                          .q0_limb, row)
    with pytest.raises(ConfigurationError, match="scale must be nonzero"):
        make_plaintext_seed(params, row, 0)
    # A seed is its row, so its length is its period: one dimension, a
    # power of two from 2 to N.
    for bad in (row.reshape(2, -1)[:, :64], row[:0], row[:1], row[:3],
                np.tile(row, 2), np.int64(5)):
        with pytest.raises(ConfigurationError, match="seed row"):
            make_plaintext_seed(params, bad, 1 << 40)
    for m in (2, 64, params.n_ring):
        assert np.array_equal(
            make_plaintext_seed(params, row[:m], 1 << 40).q0_limb, row[:m])


def test_oflimb_constants_reject_non_finite_rows(params, monkeypatch):
    plan = build_dft_plan(params, DFT, size=16, k=2, split=(1, 2),
                          levels=[3, 2])
    merge = hdft.merge_factors

    def with_nan(*args, **kwargs):
        merged = merge(*args, **kwargs)
        low = min(merged)
        merged[low] = np.full_like(merged[low], np.nan)
        return merged

    monkeypatch.setattr(hdft, "merge_factors", with_nan)
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
    low = crt_reconstruct(decrypt(params, ct, sk).poly)
    high = crt_reconstruct(decrypt(params, raised, sk).poly)
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
            want = transform_limbs(base_convert(low.coeffs(), table), rest,
                                   "forward")
            assert got.basis == basis_c(params, level)
            assert np.array_equal(got.limbs[0], low.limbs[0])
            assert np.array_equal(got.limbs[1:], want)


def test_mod_raise_is_one_mod_up(params, sk, monkeypatch):
    """The raise runs key switching's ModUp of the one q0 piece: one
    `convert_limbs` call, from q0 into the other primes, over both
    halves."""
    calls = []

    def recording(limbs, source, target):
        calls.append((source, target, limbs.shape))
        return convert_limbs(limbs, source, target)

    monkeypatch.setattr("rnsckks.ckks.convert_limbs", recording)
    rng = np.random.default_rng(87)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=0), sk, rng)
    mod_raise(params, ct, 3)
    assert calls == [(basis_c(params, 0),
                      LimbBasis(basis_c(params, 3).primes[1:]),
                      (1, 2, params.n_ring))]


def test_mod_raise_level_guards(params, sk):
    rng = np.random.default_rng(89)
    ct = encrypt(params, encode(params, random_message(params, rng)), sk, rng)
    with pytest.raises(ConfigurationError):
        mod_raise(params, ct)               # not at level 0
    low = encrypt(params, encode(params, random_message(params, rng),
                                 level=0), sk, rng)
    with pytest.raises(ConfigurationError):
        mod_raise(params, low, 0)
    other = CkksParams(q0_bits=58)          # level 0, another base prime
    foreign = encrypt(other, encode(other, [1.0], level=0),
                      keygen(other, rng), rng)
    with pytest.raises(ConfigurationError):
        mod_raise(params, foreign)


def test_bootstrap_returns_to_usable_level(params, sk, boot_plans,
                                           bootstrap_run):
    v, ct_in, out, _ = bootstrap_run
    assert ct_in.level == 0
    assert out.level == boot_plans[1].levels[-1] - 1
    assert out.slots == params.n_slots
    assert rel_error(slot_values(params, out, sk),
                     v) < params.budgets.bootstrap


def test_bootstrap_key_traffic(boot_plans, bootstrap_run):
    """Both passes hold two switching keys per iteration; the fix-up
    rotations ride on keys their stages already loaded."""
    log = bootstrap_run[3]
    inv, fwd = boot_plans
    assert log.loads(IDFT) == 2 * inv.iterations
    assert log.loads(DFT) == 2 * fwd.iterations
    assert log.loads_by_stage(IDFT) == {s: 2 for s in range(inv.iterations)}
    assert log.loads_by_stage(DFT) == {s: 2 for s in range(fwd.iterations)}


# The first 16 hex digits of the sha256 of the min-KS `bootstrap_run`'s
# output limbs, then str((scale, level)), then repr(log.entries).
BOOTSTRAP_DIGEST = "89a5e35cbf1fd119"


def test_oflimb_bootstrap_is_minks_bit_for_bit(params, sk, boot_keys,
                                               oflimb_boot_plans,
                                               bootstrap_run):
    """The full-width bootstrap under OF-Limb, replayed from the min-KS
    run's seed, gives its limbs, scale, level and log entries; the min-KS
    run itself is pinned."""
    _, _, want, want_log = bootstrap_run
    h = hashlib.sha256(want.poly.limbs.tobytes())
    h.update(str((want.scale, want.level)).encode())
    h.update(repr(want_log.entries).encode())
    assert h.hexdigest()[:16] == BOOTSTRAP_DIGEST
    rng = np.random.default_rng([7, 5])
    v = (rng.uniform(-1, 1, params.n_slots)
         + 1j * rng.uniform(-1, 1, params.n_slots))
    ct = encrypt(params, encode(params, v, level=0), sk, rng)
    log = EvkUsageLog()
    out = bootstrap(params, ct, sk, boot_keys, rng, plans=oflimb_boot_plans,
                    variant="minks-oflimb", log=log)
    assert np.array_equal(out.poly.limbs, want.poly.limbs)
    assert (out.scale, out.level) == (want.scale, want.level)
    assert log.entries == want_log.entries


def test_bootstrap_rejects_swapped_plans(params, sk, message_plans,
                                         message_keys):
    inv, fwd = message_plans
    rng = np.random.default_rng(101)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=0), sk, rng)
    with pytest.raises(ConfigurationError, match="idft, dft"):
        bootstrap(params, ct, sk, message_keys, rng, plans=(fwd, inv))


def test_bootstrap_rejects_plans_short_of_full_width(params, sk,
                                                     message_plans,
                                                     message_keys,
                                                     monkeypatch):
    """A 64-slot pair cannot recover the message (the modulus-raise
    residue is not periodic across slot blocks), so it is refused before
    the modulus raise."""
    rng = np.random.default_rng(103)
    ct = encrypt(params, encode(params, random_message(params, rng),
                                level=0), sk, rng)

    def no_raise(*args, **kwargs):
        raise AssertionError("modulus raise reached")

    monkeypatch.setattr(hdft, "mod_raise", no_raise)
    with pytest.raises(ConfigurationError, match="size 4096"):
        bootstrap(params, ct, sk, message_keys, rng, plans=message_plans)
