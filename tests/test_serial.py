"""Container formats: roundtrips, corruption detection, determinism."""

import struct
import zlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rnsckks.ckks import (decrypt, encode, encrypt, make_relin_key,
                          make_rotation_key, mod_drop, restrict_poly,
                          slot_values)
from rnsckks.errors import SerializationError
from rnsckks.hdft import IDFT, EvkUsageLog, build_dft_plan
from rnsckks.rnspoly import LimbBasis
from rnsckks.serial import (EVKLOG_SCHEMA, PARAMS_SCHEMA, PlanSeeds,
                            load_ciphertext, load_evaluation_key,
                            load_plaintext, load_plan_seeds, load_secret_key,
                            read_params, read_usage_log, save_ciphertext,
                            save_evaluation_key, save_plaintext,
                            save_plan_seeds, save_secret_key, write_params,
                            write_usage_log)


def message(params, rng):
    return (rng.uniform(-1, 1, params.n_slots)
            + 1j * rng.uniform(-1, 1, params.n_slots))


@pytest.fixture()
def ct(params, sk):
    rng = np.random.default_rng(111)
    return encrypt(params, encode(params, message(params, rng)), sk, rng)


# ---------------------------------------------------------------------------
# Roundtrips.

def test_plaintext_roundtrip(params, tmp_path):
    pt = encode(params, message(params, np.random.default_rng(113)),
                level=5, scale=Fraction(3, 2) * (1 << 40))
    path = str(tmp_path / "m.pt")
    save_plaintext(path, pt)
    back = load_plaintext(path)
    assert back.scale == pt.scale            # exact Fraction survives
    assert (back.level, back.slots) == (pt.level, pt.slots)
    assert back.poly.basis == pt.poly.basis
    assert back.poly.rep == pt.poly.rep
    assert np.array_equal(back.poly.limbs, pt.poly.limbs)


def test_ciphertext_roundtrip(params, sk, ct, tmp_path):
    path = str(tmp_path / "m.ct")
    save_ciphertext(path, ct)
    back = load_ciphertext(path)
    assert back.scale == ct.scale
    assert np.array_equal(back.c0.limbs, ct.c0.limbs)
    assert np.array_equal(back.c1.limbs, ct.c1.limbs)
    assert np.array_equal(slot_values(params, back, sk),
                          slot_values(params, ct, sk))


def test_secret_key_roundtrip(params, sk, tmp_path):
    path = str(tmp_path / "s.key")
    save_secret_key(path, sk)
    back = load_secret_key(path, params)
    assert back.params is params
    assert np.array_equal(back.poly.limbs, sk.poly.limbs)


def test_secret_key_checks_ring_degree(params, tiny_params, tiny_sk,
                                       tmp_path):
    path = str(tmp_path / "tiny.key")
    save_secret_key(path, tiny_sk)
    load_secret_key(path, tiny_params)
    with pytest.raises(SerializationError, match="ring degree"):
        load_secret_key(path, params)


def test_evaluation_key_roundtrip(params, sk, relin, tmp_path):
    rot = make_rotation_key(params, sk, 3, np.random.default_rng(127))
    for name, evk in (("r.evk", relin), ("rot3.evk", rot)):
        path = str(tmp_path / name)
        save_evaluation_key(path, evk)
        back = load_evaluation_key(path)
        assert (back.kind, back.step) == (evk.kind, evk.step)
        assert len(back.pieces) == len(evk.pieces)
        for (b0, a0), (b1, a1) in zip(back.pieces, evk.pieces):
            assert np.array_equal(b0.limbs, b1.limbs)
            assert np.array_equal(a0.limbs, a1.limbs)


def test_plan_seeds_roundtrip(params, tmp_path):
    plan = build_dft_plan(params, IDFT, size=16, k=2, split=(1, 2),
                          levels=[5, 4])
    path = str(tmp_path / "plan.seeds")
    save_plan_seeds(path, plan)
    seeds = load_plan_seeds(path)
    assert isinstance(seeds, PlanSeeds)
    assert (seeds.direction, seeds.size, seeds.k) == (IDFT, 16, 2)
    assert (seeds.k1, seeds.k2) == (1, 2)
    assert seeds.const_scale == Fraction(plan.const_scale)
    consts = plan.stage_constants("minks-oflimb")
    assert len(seeds.stages) == len(plan.stages)
    for st, seed_st, cells in zip(plan.stages, seeds.stages, consts):
        assert (seed_st.level, seed_st.g) == (st.level, st.g)
        assert seed_st.minks_roll == st.minks_roll
        assert seed_st.center_only == st.center_only
        assert sorted(seed_st.cells) == sorted(cells)
        for key, got in seed_st.cells.items():
            want = cells[key]
            assert got.scale == want.scale
            assert got.tag == want.tag
            assert got.q0_limb.dtype == np.int64
            assert np.array_equal(got.q0_limb, want.q0_limb)


def test_serialization_is_deterministic(params, ct, tmp_path):
    a, b = str(tmp_path / "a.ct"), str(tmp_path / "b.ct")
    save_ciphertext(a, ct)
    save_ciphertext(b, ct)
    assert open(a, "rb").read() == open(b, "rb").read()


# ---------------------------------------------------------------------------
# Corruption.

def test_flipped_byte_names_the_file(params, ct, tmp_path):
    path = str(tmp_path / "corrupt.ct")
    save_ciphertext(path, ct)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x40
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SerializationError, match="corrupt.ct") as info:
        load_ciphertext(path)
    assert "checksum" in str(info.value)


def test_truncation_detected(params, ct, tmp_path):
    path = str(tmp_path / "short.ct")
    save_ciphertext(path, ct)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:len(raw) - 9])
    with pytest.raises(SerializationError):
        load_ciphertext(path)
    open(path, "wb").write(raw[:11])
    with pytest.raises(SerializationError, match="header"):
        load_ciphertext(path)


def test_bad_magic_and_kind_mismatch(params, ct, tmp_path):
    path = str(tmp_path / "odd.ct")
    save_ciphertext(path, ct)
    raw = bytearray(open(path, "rb").read())
    with pytest.raises(SerializationError, match="expected plaintext"):
        load_plaintext(path)
    raw[0] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SerializationError, match="magic"):
        load_ciphertext(path)


def test_trailing_garbage_detected(params, ct, tmp_path):
    import struct
    import zlib
    path = str(tmp_path / "long.ct")
    save_ciphertext(path, ct)
    raw = open(path, "rb").read()
    head, body = raw[:16], raw[16:] + b"\x00" * 8
    head = head[:12] + struct.pack("<I", zlib.crc32(body))
    open(path, "wb").write(head + body)
    with pytest.raises(SerializationError, match="trailing"):
        load_ciphertext(path)


def _scale_text(body, text):
    (old,) = struct.unpack("<I", body[:4])
    return struct.pack("<I", len(text)) + text + body[4 + old:]


def _poly_at(body):
    """Offset of the first polynomial block: after the scale text and the
    level and slot count."""
    return 4 + struct.unpack("<I", body[:4])[0] + 8


def _rep_code(body):
    body[_poly_at(body)] = 2
    return body


def _word_at_modulus(body):
    at = _poly_at(body)
    (nlimbs,) = struct.unpack("<H", body[at + 1:at + 3])
    q = body[at + 7:at + 15]                 # the first limb's modulus
    words = at + 7 + 16 * nlimbs
    body[words:words + 8] = q
    return body


def _level_99(body):
    at = _poly_at(body) - 8
    body[at:at + 4] = struct.pack("<i", 99)
    return body


@pytest.mark.parametrize("edit, what", [
    (lambda b: _scale_text(b, b"\xff\xfe/1"), "UTF-8"),
    (lambda b: _scale_text(b, b"1/0"), "malformed fraction"),
    (_rep_code, "representation code 2"),
    (_word_at_modulus, "not below their modulus"),
    (_level_99, "level 99"),
], ids=["utf8", "zero-denominator", "rep-code", "word-at-q", "level"])
def test_crafted_ciphertext_raises_serialization_error(tiny_params, tiny_sk,
                                                       tmp_path, edit, what):
    """A body the checksum accepts but the loader must not: its own error
    type, naming the file."""
    rng = np.random.default_rng(131)
    ct = encrypt(tiny_params, encode(tiny_params, message(tiny_params, rng)),
                 tiny_sk, rng)
    path = str(tmp_path / "crafted.ct")
    save_ciphertext(path, ct)
    raw = open(path, "rb").read()
    body = bytes(edit(bytearray(raw[16:])))
    with open(path, "wb") as f:
        f.write(raw[:12] + struct.pack("<I", zlib.crc32(body)) + body)
    with pytest.raises(SerializationError, match="crafted.ct") as info:
        load_ciphertext(path)
    assert what in str(info.value)


def test_loaders_check_level_against_limbs(tiny_params, tiny_sk, tmp_path):
    rng = np.random.default_rng(137)
    pt = encode(tiny_params, message(tiny_params, rng))
    ct = encrypt(tiny_params, pt, tiny_sk, rng)
    path = str(tmp_path / "off.pt")
    save_plaintext(path, replace(pt, level=pt.level - 1))
    with pytest.raises(SerializationError, match="does not match"):
        load_plaintext(path)
    path = str(tmp_path / "mixed.ct")
    save_ciphertext(path, replace(ct, c1=mod_drop(tiny_params, ct, 0).c1))
    with pytest.raises(SerializationError, match="different bases"):
        load_ciphertext(path)


def _without_last_prime(p):
    return restrict_poly(p, LimbBasis(p.basis.primes[:-1]))


def _kind_code_2(evk, path):
    save_evaluation_key(path, evk)
    raw = open(path, "rb").read()
    body = b"\x02" + raw[17:]
    with open(path, "wb") as f:
        f.write(raw[:12] + struct.pack("<I", zlib.crc32(body)) + body)


def _no_pieces(evk, path):
    save_evaluation_key(path, replace(evk, pieces=()))


def _piece_halves_apart(evk, path):
    (b, a), *rest = evk.pieces
    save_evaluation_key(path, replace(
        evk, pieces=((b, _without_last_prime(a)), *rest)))


def _pieces_apart(evk, path):
    first, *rest = evk.pieces
    save_evaluation_key(path, replace(evk, pieces=(first, *(
        (_without_last_prime(b), _without_last_prime(a)) for b, a in rest))))


@pytest.mark.parametrize("craft, what", [
    (_kind_code_2, "kind code 2"),
    (_no_pieces, "no pieces"),
    (_piece_halves_apart, "b and a of a key piece"),
    (_pieces_apart, "key pieces lie over different bases"),
], ids=["kind-code", "no-pieces", "piece-halves", "pieces"])
def test_crafted_evaluation_key_raises_serialization_error(
        tiny_params, tiny_sk, tmp_path, craft, what):
    """Checksum-valid key containers that no key generation writes."""
    evk = make_relin_key(tiny_params, tiny_sk, np.random.default_rng(139))
    assert len(evk.pieces) > 1
    path = str(tmp_path / "crafted.evk")
    craft(evk, path)
    with pytest.raises(SerializationError, match="crafted.evk") as info:
        load_evaluation_key(path)
    assert what in str(info.value)


# ---------------------------------------------------------------------------
# Parameter files.

def test_params_file_roundtrip(params, tmp_path):
    path = str(tmp_path / "params.txt")
    write_params(path, params, seed=12345)
    first = open(path).read()
    assert first.splitlines()[0] == PARAMS_SCHEMA
    back, seed = read_params(path)
    assert back == params
    assert seed == 12345
    write_params(path, params)
    again, no_seed = read_params(path)
    assert again == params and no_seed is None


def test_params_file_expresses_digit_count(tmp_path):
    path = str(tmp_path / "params.txt")
    path2 = str(tmp_path / "p2.txt")
    open(path, "w").write("n_ring = 64\nn_slots = 4\nlevels = 5\ndnum = 2\n")
    back, _ = read_params(path)
    assert back.alpha == 3 and back.dnum == 2
    open(path2, "w").write("levels = 5\ndnum = 4\n")
    with pytest.raises(SerializationError, match="divide"):
        read_params(path2)


@pytest.mark.parametrize("line,what", [
    ("n_ring 8192", "expected key = value"),
    ("edges = 3", "unknown key"),
    ("levels = seven", "malformed value"),
    ("n_slots = 8192", "invalid parameters"),
])
def test_params_file_rejects_bad_lines(tmp_path, line, what):
    path = str(tmp_path / "bad.txt")
    open(path, "w").write(PARAMS_SCHEMA + "\n" + line + "\n")
    with pytest.raises(SerializationError, match=what):
        read_params(path)


def test_params_file_missing(tmp_path):
    with pytest.raises(SerializationError, match="cannot read"):
        read_params(str(tmp_path / "absent.txt"))


# ---------------------------------------------------------------------------
# Usage logs.

def test_usage_log_roundtrip(tmp_path):
    log = EvkUsageLog()
    log.note_rotation("idft", 0, 64, 64)
    log.note_rotation("idft", 0, 128, 64)
    log.note_rotation("idft", 0, -256, -256, performed=False)
    log.note_pmult("idft", 0, count=3)
    log.note_rotation("dft", 1, 8, 8)
    path = str(tmp_path / "ops.evklog")
    write_usage_log(path, log)
    assert open(path).read().splitlines()[0] == EVKLOG_SCHEMA
    back = read_usage_log(path)
    assert back.entries == log.entries
    assert back.loads("idft") == log.loads("idft") == 2
    assert back.reuses("idft") == 1
    # The dedup set is rebuilt, so appending keeps classifying correctly.
    back.note_rotation("idft", 0, 192, 64)
    assert back.entries[-1].kind == "reuse"


@pytest.mark.parametrize("body,what", [
    ("", "schema"),
    ("hrot idft 0 64 64 load", "expected 7 fields"),
    ("spin idft 0 64 64 load 1", "malformed record"),
    ("hrot idft zero 64 64 load 1", "malformed numbers"),
    ("hrot idft 0 64 64 reuse 1", "does not replay"),
    ("pmult idft 0 0 0 load 1", "does not replay"),
])
def test_usage_log_rejects_malformed(tmp_path, body, what):
    path = str(tmp_path / "bad.evklog")
    text = body if body == "" else EVKLOG_SCHEMA + "\n" + body + "\n"
    open(path, "w").write(text)
    with pytest.raises(SerializationError, match=what):
        read_usage_log(path)
