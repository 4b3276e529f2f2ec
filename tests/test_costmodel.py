"""Closed-form cost model: formulas, pins, and agreement with executed runs.

Numeric pins here are regression locks on the model's own arithmetic;
the acceptance suite separately checks them against published targets.
"""

import numpy as np
import pytest

from rnsckks.ckks import CkksParams
from rnsckks.costmodel import (PROFILES, POLICY_ALTERNATING, POLICY_LIMB_WISE,
                               SCALED_F1, VARIANTS, CostReport, DataSizes,
                               MachineProfile, ParamProfile, PassShape,
                               bootstrap_pass_shapes, data_sizes,
                               distribution_transfer, evk_bytes_at,
                               hdft_pass_cost, keyswitch_mults,
                               plaintext_bytes_at, pmult_mults,
                               rescale_mults, tas_metric, utilization_bound)
from rnsckks.errors import ConfigurationError
from test_serial import NON_DEFAULT_PARAMS

MIB = 1 << 20


# ---------------------------------------------------------------------------
# Profiles.

def test_builtin_profiles_are_consistent():
    assert set(PROFILES) == {"desk", "lattigo", "100x", "f1", "ark"}
    for p in PROFILES.values():
        assert p.alpha * p.dnum == p.L + 1
        assert p.dnum_at(p.L) == p.dnum


def test_profile_from_params():
    """`from_params` reads the ring, chain, digit size and slot count off
    the parameters, and a desk bootstrap consumes every level; the desk
    profile is the defaults' own, so `tas_metric` refuses it."""
    params = CkksParams(**NON_DEFAULT_PARAMS)
    p = ParamProfile.from_params(params)
    assert (p.name, p.N, p.L, p.alpha, p.n) == (
        "desk", params.n_ring, params.levels, params.alpha, params.n_slots)
    assert p.dnum == params.dnum
    assert p.L_boot == params.levels
    assert PROFILES["desk"] == ParamProfile.from_params(CkksParams())
    with pytest.raises(ConfigurationError, match="recover"):
        tas_metric(1.0, lambda lv: 0.0, PROFILES["desk"])


@pytest.mark.parametrize("kwargs", [
    dict(N=100),
    dict(alpha=3),                     # alpha does not divide L + 1
    dict(n=0),
    dict(n=1 << 13),
    dict(word_bytes=0),
    dict(L_boot=8),
])
def test_param_profile_validation(kwargs):
    base = dict(name="x", N=1 << 13, L=7, alpha=4, n=64, L_boot=0)
    with pytest.raises(ConfigurationError):
        ParamProfile(**{**base, **kwargs})


def test_machine_profile_validation():
    with pytest.raises(ConfigurationError):
        MachineProfile("m", 0, 1e9, 1e12)
    with pytest.raises(ConfigurationError):
        MachineProfile("m", 1024, 1e9, -1.0)
    assert SCALED_F1.modular_multiplier_count == 40960


def test_dnum_at_tracks_live_pieces():
    ark = PROFILES["ark"]
    assert [ark.dnum_at(lv) for lv in (23, 17, 11, 5, 0)] == [4, 3, 2, 1, 1]
    with pytest.raises(ConfigurationError):
        ark.dnum_at(24)
    with pytest.raises(ConfigurationError):
        ark.dnum_at(-1)


# ---------------------------------------------------------------------------
# Static sizes.

def test_object_sizes_published_configurations():
    expect = {
        "lattigo": (12.5, 25.0, 150.0),
        "100x": (30.0, 60.0, 240.0),
        "f1": (1.0, 2.0, 34.0),
        "ark": (12.0, 24.0, 120.0),
    }
    for name, (pt, ct, evk) in expect.items():
        s = data_sizes(PROFILES[name])
        assert s.plaintext_bytes / MIB == pt
        assert s.ciphertext_bytes / MIB == ct
        assert s.evk_bytes / MIB == evk


def test_sizes_scale_with_level():
    ark = PROFILES["ark"]
    sizes = data_sizes(ark)
    assert evk_bytes_at(ark, ark.L) == sizes.evk_bytes
    assert plaintext_bytes_at(ark, ark.L) == sizes.plaintext_bytes
    # One gadget piece drops out below each multiple of alpha.
    assert evk_bytes_at(ark, 17) == 3 * 2 * (6 + 18) * ark.N * 8
    assert plaintext_bytes_at(ark, 0) == ark.N * 8


def test_custom_single_digit_row():
    p = ParamProfile("wide", N=1 << 16, L=23, alpha=24, n=1 << 15)
    s = data_sizes(p)
    assert s.evk_bytes == 1 * 2 * (24 + 24) * (1 << 16) * 8
    assert s.ciphertext_bytes == 2 * s.plaintext_bytes


# ---------------------------------------------------------------------------
# Key-switch compute.

def test_keyswitch_mults_closed_form_desk():
    desk = PROFILES["desk"]
    km = keyswitch_mults(desk, 7)
    butterflies = 4096 * 13
    assert km.ntt == (2 + 2) * 12 * butterflies == 2555904
    assert km.bconv == (2 + 2) * 4 * 9 * 8192 == 1179648
    assert km.elementwise == 2 * 2 * 12 * 8192 + 2 * 8 * 8192 == 524288
    assert km.total == 4259840
    assert km.ntt_share + km.bconv_share < 1.0


def test_keyswitch_shrinks_with_level():
    ark = PROFILES["ark"]
    totals = [keyswitch_mults(ark, lv).total for lv in range(ark.L + 1)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_kernel_share_pins():
    f1 = keyswitch_mults(PROFILES["f1"], 15)
    assert f1.ntt_share == pytest.approx(0.7083, abs=5e-5)
    assert f1.bconv_share == pytest.approx(0.1012, abs=5e-5)
    ark = keyswitch_mults(PROFILES["ark"], 23)
    assert ark.ntt_share == pytest.approx(0.5479, abs=5e-5)
    assert ark.bconv_share == pytest.approx(0.3425, abs=5e-5)


def test_helper_op_costs():
    desk = PROFILES["desk"]
    assert pmult_mults(desk, 7) == 2 * 8 * 8192
    assert rescale_mults(desk, 7) == 2 * (8 * 4096 * 13 + 7 * 8192)


# ---------------------------------------------------------------------------
# Pass shapes.

def test_pass_shape_validation():
    good = dict(direction="idft", size=1 << 15, k=5, k1=3, k2=3,
                levels=(23, 22, 21))
    PassShape(**good)
    for bad in (dict(direction="up"), dict(size=3000), dict(k=4),
                dict(k=0), dict(k1=2), dict(k1=6, k2=0),
                dict(levels=(23, 22)), dict(levels=(23, 21, 20))):
        with pytest.raises(ConfigurationError):
            PassShape(**{**good, **bad})


def test_pass_shape_refuses_out_of_range_input():
    """A stage index outside [0, iterations) and a k below 1 are refused,
    not priced."""
    shape = PassShape("idft", 1 << 15, 5, 3, 3, (23, 22, 21))
    for s in (-1, 3):
        with pytest.raises(ConfigurationError, match="stage"):
            shape.stride(s)
        for variant in VARIANTS:
            with pytest.raises(ConfigurationError, match="stage"):
                shape.rotations(s, variant)
    for k in (0, -1):
        with pytest.raises(ConfigurationError, match="k must"):
            bootstrap_pass_shapes(PROFILES["ark"], k, (1, 1))


def test_pass_shape_from_plan(params, boot_plans):
    """A plan is the shape the model prices: costing it, or the bare shape
    `from_plan` takes from it, gives the same report."""
    from rnsckks.hdft import IDFT, build_dft_plan
    plan = build_dft_plan(params, IDFT, size=64, k=2, split=(1, 2))
    assert isinstance(plan, PassShape)
    shape = PassShape.from_plan(plan)
    assert shape == PassShape("idft", 64, 2, 1, 2, (7, 6, 5))
    assert shape.iterations == plan.iterations == 3
    desk = PROFILES["desk"]
    for each in (plan, *boot_plans):
        for variant in VARIANTS:
            assert hdft_pass_cost(each, desk, variant) == hdft_pass_cost(
                PassShape.from_plan(each), desk, variant)


def test_bootstrap_schedules():
    idft, dft = bootstrap_pass_shapes(PROFILES["ark"], 5, (3, 3))
    assert idft.size == dft.size == 1 << 15
    assert idft.levels == (23, 22, 21)
    assert dft.levels == (4, 3, 2)
    idft, dft = bootstrap_pass_shapes(PROFILES["100x"], 4, (2, 3))
    assert idft.levels == (29, 28, 27, 26)
    assert dft.levels == (5, 4, 3, 2)


# ---------------------------------------------------------------------------
# Pass costs (regression pins, ark bootstrap schedule).

ARK_PASS_PINS = {
    # (pass, variant): (offchip_bytes, modular_mults, evk_loads)
    ("idft", "baseline"): (7123501056, 7779385344, 40),
    ("idft", "minks"): (3008888832, 7785545728, 6),
    ("idft", "minks-oflimb"): (828899328, 10064625664, 6),
    ("dft", "baseline"): (821035008, 1127743488, 40),
    ("dft", "minks"): (459276288, 1124728832, 6),
    ("dft", "minks-oflimb"): (162004992, 1521090560, 6),
}


@pytest.fixture(scope="module")
def ark_reports():
    ark = PROFILES["ark"]
    idft, dft = bootstrap_pass_shapes(ark, 5, (3, 3))
    return {(shape.direction, var): hdft_pass_cost(shape, ark, var)
            for shape in (idft, dft) for var in VARIANTS}


def test_ark_pass_pins(ark_reports):
    for key, (offchip, mults, loads) in ARK_PASS_PINS.items():
        r = ark_reports[key]
        assert (r.offchip_bytes, r.modular_mults, r.evk_loads) \
            == (offchip, mults, loads), key


def test_ark_intensity_pins(ark_reports):
    opb = {k: r.ops_per_byte for k, r in ark_reports.items()}
    assert opb[("idft", "baseline")] == pytest.approx(1.0921, abs=1e-4)
    assert opb[("idft", "minks")] == pytest.approx(2.5875, abs=1e-4)
    assert opb[("idft", "minks-oflimb")] == pytest.approx(12.1422, abs=1e-4)
    assert opb[("dft", "baseline")] == pytest.approx(1.3736, abs=1e-4)
    assert opb[("dft", "minks")] == pytest.approx(2.4489, abs=1e-4)
    assert opb[("dft", "minks-oflimb")] == pytest.approx(9.3892, abs=1e-4)


def test_variant_ordering_holds_across_profiles():
    cases = [("ark", 5, (3, 3)), ("lattigo", 5, (2, 4)),
             ("100x", 4, (2, 3)), ("desk", 6, (3, 4))]
    for name, k, split in cases:
        p = PROFILES[name]
        for shape in bootstrap_pass_shapes(p, k, split):
            reports = [hdft_pass_cost(shape, p, v) for v in VARIANTS]
            bytes_ = [r.offchip_bytes for r in reports]
            assert bytes_[0] > bytes_[1] > bytes_[2], (name, shape.direction)
            opb = [r.ops_per_byte for r in reports]
            assert opb[0] < opb[1] < opb[2], (name, shape.direction)


def test_stage_cost_breakdown(ark_reports):
    ark = PROFILES["ark"]
    r = ark_reports[("idft", "minks")]
    assert tuple(st.level for st in r.stages) == (23, 22, 21)
    for st in r.stages:
        assert st.evk_loads == 2
        assert st.evk_bytes == 2 * evk_bytes_at(ark, st.level)
        assert st.plaintext_bytes == 63 * plaintext_bytes_at(ark, st.level)
    # The baseline's wrap stage, g = size / 2^k, loads 7 baby keys and 3
    # giant keys: its pre-rotation and one giant are no-ops, and giants
    # i2 and i2 + 4 name one step.
    base = ark_reports[("idft", "baseline")]
    assert [st.evk_loads for st in base.stages] == [10, 15, 15]


def test_oflimb_trades_bytes_for_transforms(ark_reports):
    """Seeded constants load one limb but pay (level+1) extensions."""
    ark = PROFILES["ark"]
    minks = ark_reports[("idft", "minks")]
    oflimb = ark_reports[("idft", "minks-oflimb")]
    assert oflimb.evk_bytes == minks.evk_bytes
    assert oflimb.plaintext_bytes == sum(
        63 * ark.N * 8 for _ in minks.stages)
    butterflies = (ark.N // 2) * 16
    extension = sum(63 * (st.level + 1) * butterflies
                    for st in minks.stages)
    assert oflimb.modular_mults - minks.modular_mults == extension
    added_share = 1 - minks.modular_mults / oflimb.modular_mults
    assert added_share == pytest.approx(0.2264, abs=1e-4)


def test_oflimb_seed_bytes_against_model(params, oflimb_boot_plans):
    """The model's per-stage OF-Limb bytes (N words per seed) are what a
    g = 64 stage stores; a g = 1 stage stores its row of 2^(k+1) = N/64
    words per seed, 1/64 of the term."""
    desk = PROFILES["desk"]
    assert desk.N == params.n_ring
    for plan in oflimb_boot_plans:
        report = hdft_pass_cost(PassShape.from_plan(plan), desk,
                                "minks-oflimb")
        consts = plan.stage_constants("minks-oflimb")
        for s, cost, cells in zip(range(plan.iterations), report.stages,
                                  consts):
            stored = sum(seed.q0_limb.nbytes for seed in cells.values())
            g = plan.stride(s)
            assert g in (1, 64)
            assert stored * (64 if g == 1 else 1) == cost.plaintext_bytes


def test_minks_plaintext_bytes_against_model(params, boot_plans):
    """The model's per-stage min-KS bytes (plaintext_bytes_at per
    diagonal) are what a g = 64 stage stores; a g = 1 stage stores one
    period of N/64 words per limb, 1/64 of the term."""
    desk = PROFILES["desk"]
    total = 0
    for plan in boot_plans:
        report = hdft_pass_cost(PassShape.from_plan(plan), desk, "minks")
        consts = plan.stage_constants("minks")
        for s, level, cost, cells in zip(range(plan.iterations),
                                         plan.levels, report.stages, consts):
            stored = sum(pt.poly.limbs.nbytes for pt in cells.values())
            assert cost.plaintext_bytes == 127 * plaintext_bytes_at(
                desk, level)
            g = plan.stride(s)
            assert g in (1, 64)
            assert stored * (64 if g == 1 else 1) == cost.plaintext_bytes
            total += stored
    assert total == 127 * (8 + 2) * 8192 * 8 + 127 * (7 + 3) * 128 * 8


def _oracle_stage(shape, s, variant):
    """(loads, rotations, no-ops) of stage s in closed form, written apart
    from `PassShape.rotations`: the baseline schedules a pre-rotation,
    2^k1 - 1 babies and 2^k2 - 1 giants, the grouped variants the same
    babies and giants and, at the fix-up stage (first for a DFT, last for
    an IDFT), one rotation more.  A load is one distinct nonzero step
    (amount mod size): amounts that differ by size share one key, and a
    step of 0 is a no-op that loads nothing.

    Steps collide only at the wrap stage, g = size / 2^k, and, for k = 1,
    at the stage of g = size / 4.  At the wrap stage the baseline's
    pre-rotation (-size) and giant 2^(k2-1) (+size) are no-ops and giants
    i2 and i2 + 2^(k2-1) share a key: 2^k1 - 1 + 2^(k2-1) - 1 loads.  At
    k = 1 and g = size / 4 the pre-rotation (-2g) and the one giant (2g)
    share a key.  The grouped variants load keys g and 2^k1 * g (the
    fix-up's 1 is g at its stage); their giant step is 0, a no-op, only
    at the wrap stage with k2 = 1."""
    g, big, giants = shape.stride(s), 1 << shape.k1, (1 << shape.k2) - 1
    wrap = g << shape.k == shape.size
    if variant == "baseline":
        rotations = big + giants
        if wrap:
            return big - 1 + (1 << (shape.k2 - 1)) - 1, rotations, 2
        shared = shape.k == 1 and 4 * g == shape.size
        return rotations - shared, rotations, 0
    fix = 0 if shape.direction == "dft" else shape.iterations - 1
    idle = int(wrap and shape.k2 == 1)
    return 2 - idle, big - 1 + giants + (s == fix), idle


def _oracle_steps(shape, variant):
    """Key steps in closed form: the baseline's every scheduled amount,
    the grouped variants' strides g and 2^k1 * g plus the fix-up's 1."""
    big, steps = 1 << shape.k1, set()
    for s in range(shape.iterations):
        g = shape.stride(s)
        if variant == "baseline":
            steps |= {-(1 << shape.k) * g,
                      *(i1 * g for i1 in range(1, big)),
                      *(i2 * big * g for i2 in range(1, 1 << shape.k2))}
        else:
            steps |= {1, g, big * g}
    return sorted({x % shape.size for x in steps} - {0})


def _stage_mults(p, level, variant, rotations, pmults):
    """A stage's mults from its counts, in closed form: one key switch per
    performed rotation, one pmult per diagonal (and for OF-Limb its seed's
    widening, level + 1 N-point transforms) and one rescale."""
    widen = ((level + 1) * (p.N // 2) * (p.N.bit_length() - 1)
             if variant == "minks-oflimb" else 0)
    return (rotations * keyswitch_mults(p, level).total
            + pmults * (pmult_mults(p, level) + widen)
            + rescale_mults(p, level))


def _check_against_oracle(shape, p, variant):
    """Check one shape's schedule, and its price where its levels fit the
    profile's chain, against the oracle; return its stage count."""
    assert shape.required_steps(variant) == _oracle_steps(shape, variant)
    priced = shape.iterations <= p.L
    report = hdft_pass_cost(shape, p, variant) if priced else None
    diagonals = (1 << (shape.k + 1)) - 1
    for s, level in enumerate(shape.levels):
        loads, rotations, noops = _oracle_stage(shape, s, variant)
        flat = shape.rotations(s, variant).flat
        assert (len({step for step, _ in flat} - {0}), len(flat)) \
            == (loads, rotations), (p.name, shape, s, variant)
        if not priced:
            continue
        st = report.stages[s]
        assert st.evk_loads == loads
        assert st.modular_mults == _stage_mults(
            p, level, variant, rotations - noops, diagonals)
    return shape.iterations


def test_schedule_matches_closed_form_oracle():
    """Every pass shape the five profiles admit (each k dividing
    log2(N/2), each split, both directions), under every variant: the
    schedule `hdft_apply` runs, and the stage costs the model prices
    from it, have the closed-form loads, rotations and no-ops."""
    checks = 0
    for p in PROFILES.values():
        size = p.N // 2
        logn = size.bit_length() - 1
        for k in (k for k in range(1, logn + 1) if logn % k == 0):
            for k1 in range(1, k + 1):
                for direction in ("idft", "dft"):
                    shape = PassShape(direction, size, k, k1, k + 1 - k1,
                                      tuple(range(logn // k, 0, -1)))
                    for variant in VARIANTS:
                        checks += _check_against_oracle(shape, p, variant)
    assert checks == 1788


def test_pass_cost_rejects_unknown_variant():
    shape = PassShape("idft", 1 << 15, 5, 3, 3, (23, 22, 21))
    with pytest.raises(ConfigurationError):
        hdft_pass_cost(shape, PROFILES["ark"], "fastest")


# ---------------------------------------------------------------------------
# The model against executed runs.

@pytest.fixture(scope="module")
def roundtrip_logs():
    """Key-usage logs of the size-16 and size-64 round trips under every
    variant, each with the plans it ran.  The log is set by the plan's
    shape alone, so a 128-point ring with the desk chain runs them."""
    from rnsckks.ckks import encode, encrypt, keygen, make_rotation_keys
    from rnsckks.hdft import EvkUsageLog, hdft_apply, roundtrip_plans
    params = CkksParams(n_ring=128)
    rng = np.random.default_rng([7, 6])
    sk = keygen(params, rng)
    runs = []
    for size in (16, 64):
        plans = roundtrip_plans(params, size, 2, (1, 2))
        steps = {step for plan in plans for v in VARIANTS
                 for step in plan.required_steps(v)}
        keys = make_rotation_keys(params, sk, steps, rng)
        ct = encrypt(params, encode(params, rng.standard_normal(64)), sk, rng)
        for variant in VARIANTS:
            log, out = EvkUsageLog(), ct
            for plan in plans:
                out = hdft_apply(params, out, plan, keys, variant, log)
            runs.append((params, plans, variant, log))
    return runs


def test_pass_cost_rebuilds_from_run_logs(params, boot_plans, bootstrap_run,
                                          roundtrip_logs):
    """Per stage of every run, the log's loads are the model's, and its
    performed rotations and pmults rebuild the model's mults: a scheduled
    no-op, logged with step 0, loads nothing and costs no key switch."""
    runs = [*roundtrip_logs, (params, boot_plans, "minks", bootstrap_run[3])]
    skipped = 0
    for run_params, plans, variant, log in runs:
        p = ParamProfile.from_params(run_params)
        for plan in plans:
            report = hdft_pass_cost(plan, p, variant)
            assert log.loads_by_stage(plan.direction) == {
                s: st.evk_loads for s, st in enumerate(report.stages)}
            for s, st in enumerate(report.stages):
                entries = [e for e in log.entries
                           if (e.transform, e.stage) == (plan.direction, s)]
                rotations = sum(e.op == "hrot" and e.evk_id != 0
                                for e in entries)
                pmults = sum(e.op == "pmult" for e in entries)
                skipped += sum(e.op == "hrot" and e.evk_id == 0
                               for e in entries)
                assert st.modular_mults == _stage_mults(
                    p, st.level, variant, rotations, pmults), \
                    (plan.size, plan.direction, variant, s)
    # Two per baseline pass, at its stride size / 4 stage.
    assert skipped == 8


# ---------------------------------------------------------------------------
# Derived metrics.

def test_utilization_bound_pins(ark_reports):
    idft_mults = ark_reports[("idft", "baseline")].modular_mults
    dft_mults = ark_reports[("dft", "baseline")].modular_mults
    assert utilization_bound(SCALED_F1, 6.4e9, idft_mults) \
        == pytest.approx(0.08903, abs=1e-5)
    assert utilization_bound(SCALED_F1, 0.6e9, dft_mults) \
        == pytest.approx(0.137664, abs=1e-6)


def test_utilization_bound_saturates():
    m = MachineProfile("tiny", 2, 1e6, 1e9)
    assert utilization_bound(m, 1e9, 1e12) == 1.0
    with pytest.raises(ConfigurationError):
        utilization_bound(m, 0, 10)
    with pytest.raises(ConfigurationError):
        utilization_bound(m, 10, 0)


def test_distribution_transfer_formulas():
    ark = PROFILES["ark"]
    words = (6 + 24) * (1 << 16)
    assert distribution_transfer(ark, POLICY_ALTERNATING) == 6 * words
    assert distribution_transfer(ark, POLICY_LIMB_WISE) == 8 * words
    f1 = PROFILES["f1"]
    w1 = (1 + 16) * (1 << 14)
    assert distribution_transfer(f1, POLICY_ALTERNATING) == 18 * w1
    assert distribution_transfer(f1, POLICY_LIMB_WISE) == 32 * w1
    with pytest.raises(ConfigurationError):
        distribution_transfer(ark, "ring")


def test_amortized_slot_time():
    ark = PROFILES["ark"]
    flat = tas_metric(3.749e-3, lambda lv: 0.0, ark)
    assert flat * 1e9 == pytest.approx(14.3013, abs=1e-4)
    ramp = tas_metric(1.0, lambda lv: 0.25 * lv, ark)
    depth = ark.L - ark.L_boot
    total = 1.0 + 0.25 * depth * (depth + 1) / 2
    assert ramp == pytest.approx(total / depth / ark.n, rel=1e-12)
    with pytest.raises(ConfigurationError):
        tas_metric(1.0, lambda lv: 0.0, PROFILES["f1"])
    stuck = ParamProfile("stuck", N=1 << 14, L=15, alpha=1,
                         n=4, L_boot=15)
    with pytest.raises(ConfigurationError):
        tas_metric(1.0, lambda lv: 0.0, stuck)


def test_zero_byte_report_has_zero_intensity():
    empty = CostReport("minks", ())
    assert (empty.evk_bytes, empty.plaintext_bytes, empty.modular_mults,
            empty.evk_loads, empty.offchip_bytes) == (0, 0, 0, 0, 0)
    assert empty.ops_per_byte == 0.0
    assert isinstance(data_sizes(PROFILES["desk"]), DataSizes)
