"""Command-line harness: self tests, transforms, key material, reports.

Primary report lines go to stdout (mirrored to --out when given) and are
byte-stable for a fixed seed; wall-clock timings and progress notes go
to stderr.  Every command exits nonzero when at least one of its checks
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time

import numpy as np

from . import costmodel, serial
from .ckks import (CkksParams, aux_chain, basis_b, basis_c, basis_d, decode,
                   decrypt, encode, encrypt, hadd, hmult, hrescale, hrot,
                   keygen, make_relin_key, make_rotation_keys, modulus_chain,
                   pmult, slot_values)
from .costmodel import (PROFILES, ParamProfile, bootstrap_pass_shapes,
                        data_sizes, distribution_transfer, hdft_pass_cost,
                        keyswitch_mults, tas_metric)
from .errors import SeedRangeError, SerializationError
from .hdft import (DFT, IDFT, EvkUsageLog, build_dft_plan, hdft_apply,
                   make_plaintext_seed, of_limb_extend, roundtrip_plans)
from .modmath import PrimeModulus, barrett_mul, generate_ntt_primes
from .ntt import four_step_ntt, get_tables, ntt
from .rnspoly import (LimbBasis, RnsPolynomial, base_convert, convert_limbs,
                      crt_reconstruct, lift_int_coeffs, make_base_table)

REPORT_SCHEMA = "# rnsckks-report v1"

TABLE_EXPECT_MIB = {
    "lattigo": (12.5, 25.0, 150.0),
    "100x": (30.0, 60.0, 240.0),
    "f1": (1.0, 2.0, 34.0),
    "ark": (12.0, 24.0, 120.0),
}

# Merged radix k each profile's full-width transform admits: k must
# divide log2(N/2); the split is `_split_for(k)`.
ANALYTIC_SCHEDULE = {"ark": 5, "lattigo": 5, "100x": 4, "f1": 1, "desk": 6}


def _note(msg: str):
    print(msg, file=sys.stderr)


def _read_params(args: argparse.Namespace) -> tuple[CkksParams, int | None]:
    """The --params file's parameters and seed, or the defaults and None."""
    if args.params_path is None:
        return CkksParams(), None
    return serial.read_params(args.params_path)


def _load_params(args: argparse.Namespace) -> tuple[CkksParams, int]:
    """Parameters and seed; a nonzero --seed overrides the file's seed."""
    params, file_seed = _read_params(args)
    seed = file_seed if file_seed is not None and args.seed == 0 else args.seed
    return params, seed


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)


def _split_for(k: int) -> tuple[int, int]:
    return ((k + 1) // 2, k + 1 - (k + 1) // 2)


# ---------------------------------------------------------------------------
# selftest: one seeded check per module contract.

def _check_transform_kernels(params, rng):
    pm = PrimeModulus(generate_ntt_primes(40, 1, 512)[0], 512)
    v = rng.integers(0, pm.q, 256, dtype=np.uint64)
    w = rng.integers(0, pm.q, 256, dtype=np.uint64)
    assert np.array_equal(ntt(ntt(v, pm, "forward"), pm, "inverse"), v)
    assert np.array_equal(four_step_ntt(v, pm, "forward"),
                          ntt(v, pm, "forward"))
    ref = [0] * 256
    for i in range(256):  # negacyclic product, the long way
        for j in range(256):
            t = int(v[i]) * int(w[j])
            if i + j < 256:
                ref[i + j] = (ref[i + j] + t) % pm.q
            else:
                ref[i + j - 256] = (ref[i + j - 256] - t) % pm.q
    prod = ntt(barrett_mul(ntt(v, pm, "forward"), ntt(w, pm, "forward"), pm),
               pm, "inverse")
    assert np.array_equal(prod, np.array(ref, dtype=np.uint64))


def _check_base_convert(params, rng):
    # Target must dominate the lifted range so reconstruction is exact.
    primes = generate_ntt_primes(40, 6, 64)
    src = LimbBasis(tuple(PrimeModulus(q, 64) for q in primes[:2]))
    tgt = LimbBasis(tuple(PrimeModulus(q, 64) for q in primes[2:]))
    coeffs = rng.integers(-1000, 1000, 32)
    limbs = convert_limbs(lift_int_coeffs(coeffs, src), src, tgt)
    back = crt_reconstruct(RnsPolynomial(tgt, limbs))
    big = src.modulus
    for got, want in zip(back, coeffs):
        slack = int(got) - int(want)
        assert slack % big == 0, "conversion may only be off by multiples"
        assert abs(slack) // big <= len(src) // 2 + 1, "overshoot too large"


def _check_encode_roundtrip(params, rng):
    v = rng.standard_normal(params.n_slots) \
        + 1j * rng.standard_normal(params.n_slots)
    got = decode(params, encode(params, v))
    assert np.max(np.abs(got - v)) < params.budgets.fresh


def _check_scheme_ops(params, rng, sk, relin, rot5):
    v = rng.standard_normal(params.n_slots) \
        + 1j * rng.standard_normal(params.n_slots)
    w = rng.standard_normal(params.n_slots) \
        + 1j * rng.standard_normal(params.n_slots)
    ca = encrypt(params, encode(params, v), sk, rng)
    cb = encrypt(params, encode(params, w), sk, rng)
    assert np.max(np.abs(slot_values(params, ca, sk) - v)) \
        < params.budgets.fresh
    assert np.max(np.abs(slot_values(params, hadd(ca, cb), sk) - (v + w))) \
        < 2 * params.budgets.fresh
    prod = hrescale(params, hmult(params, ca, cb, relin))
    rel = np.max(np.abs(slot_values(params, prod, sk) - v * w)) \
        / max(1.0, float(np.max(np.abs(v * w))))
    assert rel < params.budgets.multiply
    rot = hrot(params, ca, 5, rot5)
    assert np.max(np.abs(slot_values(params, rot, sk) - np.roll(v, -5))) \
        < params.budgets.rotate_factor * params.budgets.fresh


def _check_transform_variants(params, rng, sk, plans, keys):
    inv, fwd = plans
    size = inv.size
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    desk = ParamProfile.from_params(params)
    outs = {}
    for variant in ("baseline", "minks", "minks-oflimb"):
        ct = encrypt(params, encode(params, np.resize(v, params.n_slots)),
                     sk, rng)
        ct.slots = size
        log = EvkUsageLog()
        mid = hdft_apply(params, ct, inv, keys, variant, log)
        out = hdft_apply(params, mid, fwd, keys, variant, log)
        outs[variant] = slot_values(params, out, sk)[:size]
        assert np.max(np.abs(outs[variant] - v)) < params.budgets.bootstrap
        for plan in plans:
            per = log.loads_by_stage(plan.direction)
            cost = hdft_pass_cost(plan, desk, variant)
            assert [per.get(s, 0) for s in range(plan.iterations)] \
                == [st.evk_loads for st in cost.stages]
    assert np.max(np.abs(outs["baseline"] - outs["minks"])) \
        < params.budgets.bootstrap


def _check_oflimb_seeds(params, rng):
    coeffs = rng.integers(-(1 << 30), 1 << 30, params.n_ring)
    seed = make_plaintext_seed(params, coeffs, params.scale)
    for level in (0, params.levels // 2, params.levels):
        full = lift_int_coeffs(coeffs, basis_c(params, level))
        ext = of_limb_extend(params, {0: seed}, level)[0]
        assert np.array_equal(ext.poly.limbs, full)
    q0 = modulus_chain(params)[0].q
    try:
        make_plaintext_seed(params, np.array([q0 // 2 + 1, 0]),
                            params.scale)
    except SeedRangeError:
        pass
    else:
        raise AssertionError("out-of-range seed must be rejected")


def _check_serialization(params, rng, sk, tmpdir):
    v = rng.standard_normal(params.n_slots)
    ct = encrypt(params, encode(params, v), sk, rng)
    path = os.path.join(tmpdir, "fixture.ct")
    serial.save_ciphertext(path, ct)
    back = serial.load_ciphertext(path, params)
    assert np.array_equal(back.poly.limbs, ct.poly.limbs)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x55
    bad = os.path.join(tmpdir, "corrupt.ct")
    with open(bad, "wb") as f:
        f.write(bytes(raw))
    try:
        serial.load_ciphertext(bad, params)
    except SerializationError as e:
        assert "corrupt.ct" in str(e)
    else:
        raise AssertionError("corrupted fixture must fail to load")


def _check_cost_pins(params, rng):
    for name, expect in TABLE_EXPECT_MIB.items():
        got = data_sizes(PROFILES[name])
        assert tuple(b / (1 << 20) for b in got) == expect, name
    ark = PROFILES["ark"]
    words = (ark.alpha + ark.L + 1) * ark.N
    assert distribution_transfer(ark, "alternating") == 6 * words
    assert distribution_transfer(ark, "limb_wise_only") == 8 * words
    t = tas_metric(3.749e-3, lambda lv: 0.0, ark)
    assert abs(t * 1e9 - 14.3) < 0.05
    shares = keyswitch_mults(ark, ark.L)
    assert abs(shares.ntt_share - 0.548) < 0.03
    assert abs(shares.bconv_share - 0.342) < 0.03


def cmd_selftest(args: argparse.Namespace) -> int:
    params, seed = _load_params(args)
    t0 = time.perf_counter()
    rng = np.random.default_rng([seed, 0xC0FFEE])
    _note("selftest: generating keys")
    sk = keygen(params, rng)
    relin = make_relin_key(params, sk, rng)
    rot5 = make_rotation_keys(params, sk, [5], rng)[5]
    size, k, split = 16, 2, (1, 2)
    inv, fwd = roundtrip_plans(params, size, k, split)
    steps = set()
    for plan in (inv, fwd):
        for variant in ("baseline", "minks"):
            steps |= set(plan.required_steps(variant))
    keys = make_rotation_keys(params, sk, steps, rng)
    tmpdir = tempfile.mkdtemp(prefix="rnsckks-selftest-")
    _note(f"selftest: setup took {time.perf_counter() - t0:.2f}s")

    checks = [
        ("transform-kernels", lambda r: _check_transform_kernels(params, r)),
        ("base-conversion-oracle", lambda r: _check_base_convert(params, r)),
        ("encode-roundtrip", lambda r: _check_encode_roundtrip(params, r)),
        ("scheme-ops", lambda r: _check_scheme_ops(params, r, sk, relin,
                                                   rot5)),
        ("transform-variants", lambda r: _check_transform_variants(
            params, r, sk, (inv, fwd), keys)),
        ("oflimb-seed-extension", lambda r: _check_oflimb_seeds(params, r)),
        ("serialization", lambda r: _check_serialization(params, r, sk,
                                                         tmpdir)),
        ("cost-model-pins", lambda r: _check_cost_pins(params, r)),
    ]
    lines = [REPORT_SCHEMA, "command: selftest", f"seed: {seed}",
             f"params: n_ring={params.n_ring} levels={params.levels} "
             f"dnum={params.dnum}"]
    failures = 0
    for i, (name, fn) in enumerate(checks):
        check_rng = np.random.default_rng([seed, i])
        try:
            fn(check_rng)
            lines.append(f"check {name}: ok")
        except Exception as e:
            failures += 1
            lines.append(f"check {name}: FAIL ({e})")
        _note(f"selftest: {name} done at {time.perf_counter() - t0:.2f}s")
    lines.append(f"result: {len(checks) - failures}/{len(checks)} passed")
    _emit(lines, args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# hdft: run or model the slot/coefficient transforms.

def _fig4_lines(profile: ParamProfile) -> list[str]:
    k = ANALYTIC_SCHEDULE[profile.name]
    split = _split_for(k)
    lines = [f"schedule: size=2^{(profile.N // 2).bit_length() - 1} "
             f"k={k} split={split[0]}+{split[1]}"]
    idft, dft = bootstrap_pass_shapes(profile, k=k, split=split)
    for label, shape in (("idft", idft), ("dft", dft)):
        reports = {v: hdft_pass_cost(shape, profile, v)
                   for v in costmodel.VARIANTS}
        base = reports["baseline"]
        for v, rep in reports.items():
            lines.append(
                f"pass {label} variant {v}: offchip_bytes {rep.offchip_bytes}"
                f" mults {rep.modular_mults} evk_loads {rep.evk_loads}"
                f" ops_per_byte {rep.ops_per_byte:.3f}")
        gain = reports["minks"].ops_per_byte / base.ops_per_byte
        final = reports["minks-oflimb"]
        cut = 100.0 * (1.0 - final.offchip_bytes / base.offchip_bytes)
        lines.append(f"pass {label} grouped intensity gain: {gain:.3f}x")
        lines.append(f"pass {label} cumulative intensity: "
                     f"{final.ops_per_byte:.3f} ops/byte")
        lines.append(f"pass {label} traffic cut: {cut:.1f}%")
    return lines


def cmd_hdft(args: argparse.Namespace) -> int:
    params, seed = _load_params(args)
    lines = [REPORT_SCHEMA, "command: hdft", f"seed: {seed}",
             f"variant: {args.variant}", f"profile: {args.profile}"]
    if args.analytic_only:
        lines.append("mode: analytic")
        lines.extend(_fig4_lines(PROFILES[args.profile]))
        _emit(lines, args.out)
        return 0

    size, k = args.n, args.k
    split = _split_for(k)
    lines.append(f"mode: executed (size={size} k={k} split={split})")
    rng = np.random.default_rng([seed, 0xD1F7])
    t0 = time.perf_counter()
    _note("hdft: building plans and keys")
    inv, fwd = roundtrip_plans(params, size, k, split)
    sk = keygen(params, rng)
    # Message and ciphertext are drawn before the rotation keys: the key-step
    # inventory depends on the variant, and pulling it first would shift the
    # stream so each variant transformed a different input.
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    slots = np.resize(v, max(size, params.n_slots))
    ct = encrypt(params, encode(params, slots), sk, rng)
    ct.slots = size
    steps = set(inv.required_steps(args.variant)) \
        | set(fwd.required_steps(args.variant))
    keys = make_rotation_keys(params, sk, steps, rng)
    _note(f"hdft: setup took {time.perf_counter() - t0:.2f}s")

    log = EvkUsageLog()
    mid = hdft_apply(params, ct, inv, keys, args.variant, log)
    out = hdft_apply(params, mid, fwd, keys, args.variant, log)
    got = slot_values(params, out, sk)[:size]
    err = float(np.max(np.abs(got - v)))
    bound = params.budgets.bootstrap
    ok = err < bound
    _note(f"hdft: transforms took {time.perf_counter() - t0:.2f}s")

    lines.append(f"roundtrip max error: {err:.3e} (bound {bound:.3e}) "
                 f"{'ok' if ok else 'FAIL'}")
    # Quantized well below the noise bound, so every variant of the same
    # seeded run reports the same digest while evk-load counts differ.
    quantized = np.round(got.view(np.float64) * 1e4).astype(np.int64)
    digest = hashlib.sha256(quantized.tobytes()).hexdigest()[:16]
    lines.append(f"output digest (1e-4 grid): {digest}")
    for label in (IDFT, DFT):
        per = log.loads_by_stage(label)
        lines.append(f"pass {label} evk loads by stage: "
                     + " ".join(f"{s}:{per[s]}" for s in sorted(per)))
    lines.append(f"rotations performed: {log.rotation_ops()}  "
                 f"pmults: {log.pmult_ops()}  reuses: {log.reuses()}")

    desk = ParamProfile.from_params(params)
    for label, plan in ((IDFT, inv), (DFT, fwd)):
        rep = hdft_pass_cost(plan, desk, args.variant)
        lines.append(f"plan cost {label}: offchip_bytes "
                     f"{rep.offchip_bytes} mults {rep.modular_mults} "
                     f"evk_loads {rep.evk_loads} "
                     f"ops_per_byte {rep.ops_per_byte:.3f}")
    profile = PROFILES["ark" if args.profile == "desk" else args.profile]
    lines.append(f"analytic profile: {profile.name}")
    lines.extend(_fig4_lines(profile))
    _emit(lines, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sizes: static data-size table with pass/fail cells.

def cmd_sizes(args: argparse.Namespace) -> int:
    lines = [REPORT_SCHEMA, "command: sizes"]
    failures = 0
    mib = 1 << 20
    for name in ("lattigo", "100x", "f1", "ark"):
        p = PROFILES[name]
        got = data_sizes(p)
        expect = TABLE_EXPECT_MIB[name]
        cells = tuple(b / mib for b in got)
        in_mb = tuple(b / 1e6 for b in got)
        ok = cells == expect
        failures += 0 if ok else 1
        lines.append(
            f"row {name}: N=2^{p.N.bit_length() - 1} L={p.L} dnum={p.dnum} "
            f"alpha={p.alpha} w={p.word_bytes}B | plaintext {cells[0]:g} "
            f"ciphertext {cells[1]:g} evk {cells[2]:g} MiB "
            f"({in_mb[0]:.2f}/{in_mb[1]:.2f}/{in_mb[2]:.2f} MB) "
            f"(expect {expect[0]:g}/{expect[1]:g}/{expect[2]:g} MiB) "
            f"{'ok' if ok else 'FAIL'}")
    desk = ParamProfile.from_params(_read_params(args)[0])
    got = data_sizes(desk)
    lines.append(f"row desk: plaintext {got.plaintext_bytes} "
                 f"ciphertext {got.ciphertext_bytes} "
                 f"evk {got.evk_bytes} bytes")
    lines.append(f"result: {4 - failures}/4 rows match")
    _emit(lines, args.out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# keygen: write key material and parameter files.

def cmd_keygen(args: argparse.Namespace) -> int:
    params, seed = _load_params(args)
    out_dir = args.out or "rnsckks-keys"
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0x5EC2E7])
    t0 = time.perf_counter()
    sk = keygen(params, rng)
    relin = make_relin_key(params, sk, rng)
    plan = build_dft_plan(params, IDFT, size=args.n, k=args.k,
                          split=_split_for(args.k))
    steps = sorted(set(plan.required_steps(args.variant)))
    keys = make_rotation_keys(params, sk, steps, rng)
    _note(f"keygen: generated in {time.perf_counter() - t0:.2f}s")

    evks = {"relin.evk": relin,
            **{f"rot_{step}.evk": keys[step] for step in sorted(keys)}}
    written = [os.path.join(out_dir, name)
               for name in ("params.txt", "secret.key", *evks)]
    serial.write_params(written[0], params, seed=seed)
    serial.save_secret_key(written[1], sk)
    for path, evk in zip(written[2:], evks.values()):
        serial.save_evaluation_key(path, evk)

    lines = [REPORT_SCHEMA, "command: keygen", f"seed: {seed}",
             f"rotation steps: {' '.join(str(s) for s in sorted(keys))}"]
    for path in written:
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()[:16]
        lines.append(f"file {os.path.basename(path)}: "
                     f"{os.path.getsize(path)} bytes sha256:{digest}")
    _emit(lines, os.path.join(out_dir, "report.txt"))
    return 0


# ---------------------------------------------------------------------------
# bench: deterministic op counts on stdout, wall times on stderr.

def cmd_bench(args: argparse.Namespace) -> int:
    params, seed = _load_params(args)
    rng = np.random.default_rng([seed, 0xBE7C4])
    profile = ParamProfile.from_params(params)
    lines = [REPORT_SCHEMA, "command: bench", f"seed: {seed}"]

    km = keyswitch_mults(profile, params.levels)
    lines.append(f"model keyswitch@L: ntt {km.ntt} bconv {km.bconv} "
                 f"elementwise {km.elementwise} total {km.total}")
    sizes = data_sizes(profile)
    lines.append(f"model bytes: plaintext {sizes.plaintext_bytes} "
                 f"ciphertext {sizes.ciphertext_bytes} evk {sizes.evk_bytes}")

    # The twiddle tables of C_L + B, built here before keygen would build
    # them; each process builds a table once.  stderr only.
    primes = basis_d(params, params.levels)
    build = _time_once(lambda: [get_tables(pm, params.n_ring)
                                for pm in primes])
    _note(f"bench: ntt tables {len(primes)} x {params.n_ring} "
          f"{build * 1e3:.2f} ms (first build)")
    sk = keygen(params, rng)
    relin = make_relin_key(params, sk, rng)
    rot = make_rotation_keys(params, sk, [1], rng)[1]
    v = rng.standard_normal(params.n_slots)
    pt = encode(params, v)
    ct = encrypt(params, pt, sk, rng)
    timings = []

    def timed(name, fn, reps=3):
        best = min(_time_once(fn) for _ in range(reps))
        timings.append((name, best))

    timed("encode", lambda: encode(params, v))
    timed("encrypt", lambda: encrypt(params, pt, sk, rng))
    timed("decrypt", lambda: decrypt(params, ct, sk))
    timed("hadd", lambda: hadd(ct, ct))
    timed("pmult", lambda: pmult(ct, pt))
    timed("hmult+rescale",
          lambda: hrescale(params, hmult(params, ct, ct, relin)))
    timed("hrot", lambda: hrot(params, ct, 1, rot))
    for name, best in timings:
        _note(f"bench: {name} {best * 1e3:.2f} ms")
    # hrot above includes it: the key keeps its a_i halves as seeds.
    expand = min(_time_once(rot.expanded) for _ in range(3))
    _note(f"bench: evk expand {len(rot.pieces)} x {len(primes)} x "
          f"{params.n_ring} {expand * 1e3:.2f} ms (one key)")
    # One prime per butterfly kernel, per row of a 4-row stack and of one
    # row (key switching's transforms are mostly one row); stderr only, so
    # the report's "ops timed" line does not move.
    ntt_rng = np.random.default_rng([seed, 0x177])
    for label, pm in (("scale", modulus_chain(params)[1]),
                      ("aux", aux_chain(params)[0])):
        stack = ntt_rng.integers(0, pm.q, (4, params.n_ring), dtype=np.uint64)
        for direction in ("forward", "inverse"):
            for words in (stack, stack[:1]):
                best = min(_time_once(lambda: ntt(words, pm, direction))
                           for _ in range(5))
                _note(f"bench: ntt {direction} {label} q{pm.bit_width} "
                      f"{best / len(words) * 1e3:.3f} ms/row "
                      f"({len(words)} rows)")
    # One ModDown base conversion, B -> C_L over a (2, N) stack.
    src, tgt = basis_b(params), basis_c(params, params.levels)
    coeffs = np.stack([ntt_rng.integers(0, q, 2 * params.n_ring,
                                        dtype=np.uint64) for q in src.qs])
    table = make_base_table(src, tgt)
    best = min(_time_once(lambda: base_convert(coeffs, table))
               for _ in range(5))
    _note(f"bench: base_convert B -> C_{params.levels} {len(src)} x "
          f"{len(tgt)} x 2 x {params.n_ring} {best * 1e3:.3f} ms")
    lines.append(f"ops timed: {' '.join(name for name, _ in timings)}")
    lines.append("timings: stderr (wall clock, not part of the report)")
    _emit(lines, args.out)
    return 0


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Argument wiring: each command registers only the options it reads.

def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators with non-negative
    integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return seed


OPTIONS = {
    "--params": dict(dest="params_path", default=None,
                     help="parameter file (key = value lines)"),
    "--seed": dict(type=_seed, default=0,
                   help="PRNG seed; reports are byte-stable per seed"),
    "--variant": dict(default="minks", choices=list(costmodel.VARIANTS)),
    "--profile": dict(default="ark", choices=sorted(PROFILES)),
    "--out": dict(default=None,
                  help="mirror the report (keygen: output directory)"),
    "--analytic-only": dict(action="store_true",
                            help="skip execution; emit model reports only"),
    "--n": dict(type=int, default=64,
                help="transform length for executed passes"),
    "--k": dict(type=int, default=2,
                help="merged radix exponent for executed passes"),
}

COMMANDS = (
    ("selftest", "run the seeded invariant suite",
     ("--params", "--seed", "--out")),
    ("hdft", "run or model the packed (I)DFT", tuple(OPTIONS)),
    ("sizes", "reproduce the data-size table", ("--params", "--out")),
    ("keygen", "generate and serialize key material",
     ("--params", "--seed", "--variant", "--out", "--n", "--k")),
    ("bench", "time core ops; report model counts",
     ("--params", "--seed", "--out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnsckks",
        description="RNS-CKKS transforms, key material, and cost reports")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, flags in COMMANDS:
        cmd = sub.add_parser(name, help=summary)
        for flag in flags:
            cmd.add_argument(flag, **OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"selftest": cmd_selftest, "hdft": cmd_hdft,
               "sizes": cmd_sizes, "keygen": cmd_keygen,
               "bench": cmd_bench}[args.command]
    try:
        return handler(args)
    except SerializationError as e:
        _note(f"error: {e}")
        return 2
    except Exception as e:
        _note(f"error: {type(e).__name__}: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
