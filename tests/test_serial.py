"""Container formats: roundtrips, corruption detection, determinism."""

import hashlib
import struct
import zlib
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnsckks.ckks import (CkksParams, basis_d, decrypt, encode,
                          encode_diagonal_batch, encrypt, hmult, hrescale,
                          hrot, make_relin_key, make_rotation_key, mod_drop,
                          restrict_poly, slot_values)
from rnsckks.costmodel import ParamProfile
from rnsckks.errors import ConfigurationError, SerializationError
from rnsckks.modmath import PrimeModulus
from rnsckks.rnspoly import LimbBasis
from rnsckks.serial import (PARAMS_SCHEMA, load_ciphertext,
                            load_evaluation_key, load_plaintext,
                            load_secret_key, read_params, save_ciphertext,
                            save_evaluation_key, save_plaintext,
                            save_secret_key, write_params)


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
    back = load_plaintext(path, params)
    assert back.scale == pt.scale            # exact Fraction survives
    assert (back.level, back.slots) == (pt.level, pt.slots)
    assert back.poly.basis == pt.poly.basis
    assert np.array_equal(back.poly.limbs, pt.poly.widened().limbs)


def test_one_period_plaintext_saved_whole(tiny_params, tmp_path):
    """A plaintext holding one period of its evaluation words is written
    with its whole rows: the bytes of `encode`'s plaintext of the slots
    repeated to fill the ring, recording the period's slot count."""
    rng = np.random.default_rng(127)
    row = rng.normal(size=4) + 1j * rng.normal(size=4)
    (pt,) = encode_diagonal_batch(tiny_params, row[None], level=2)
    assert pt.poly.n == 8
    whole = encode(tiny_params, np.tile(row, 8), level=2)
    whole.slots = pt.slots
    paths = [str(tmp_path / name) for name in ("period.pt", "whole.pt")]
    save_plaintext(paths[0], pt)
    save_plaintext(paths[1], whole)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    back = load_plaintext(paths[0], tiny_params)
    assert np.array_equal(back.poly.limbs, pt.poly.widened().limbs)


def test_ciphertext_roundtrip(params, sk, ct, tmp_path):
    path = str(tmp_path / "m.ct")
    save_ciphertext(path, ct)
    back = load_ciphertext(path, params)
    assert back.scale == ct.scale
    assert np.array_equal(back.c0.limbs, ct.c0.limbs)
    assert np.array_equal(back.c1.limbs, ct.c1.limbs)
    assert np.array_equal(slot_values(params, back, sk),
                          slot_values(params, ct, sk))


def test_secret_key_roundtrip(params, sk, tmp_path):
    path = str(tmp_path / "s.key")
    save_secret_key(path, sk)
    back = load_secret_key(path, params)
    assert back.poly.basis == sk.poly.basis
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
        back = load_evaluation_key(path, params)
        assert back.step == evk.step
        assert len(back.pieces) == len(evk.pieces)
        # A generated key keeps a_i as a seed; the file holds its limbs.
        for (b0, a0), (b1, a1) in zip(back.pieces, evk.expanded().pieces):
            assert np.array_equal(b0.limbs, b1.limbs)
            assert np.array_equal(a0.limbs, a1.limbs)


def test_serialization_is_deterministic(params, ct, tmp_path):
    a, b = str(tmp_path / "a.ct"), str(tmp_path / "b.ct")
    save_ciphertext(a, ct)
    save_ciphertext(b, ct)
    assert open(a, "rb").read() == open(b, "rb").read()


# sha256 prefixes of the container files for one seeded chain, written
# when c0 and c1 were two separate polynomials; a ciphertext file is the
# level, then c0's block, then c1's block, whatever the in-memory layout.
PINNED_CONTAINERS = {
    "encoded.pt": "a307a1d7a3306f63",
    "fresh.ct": "de4b6912991792a7",
    "rotated.ct": "3447fb8c3dff8f57",
    "decrypted.pt": "07761965d265da65",
}


def test_container_bytes_pinned(params, sk, relin, rot_keys, tmp_path):
    """encrypt -> hmult -> hrescale -> hrot, saved at both ends."""
    rng = np.random.default_rng([17, 3])
    pt = encode(params, message(params, rng))
    ct = encrypt(params, pt, sk, rng)
    dt = encrypt(params, encode(params, message(params, rng)), sk, rng)
    res = hrescale(params, hmult(params, ct, dt, relin))
    out = hrot(params, res, 5, rot_keys[5])
    got = {}
    for name, save, obj in (("encoded.pt", save_plaintext, pt),
                            ("fresh.ct", save_ciphertext, ct),
                            ("rotated.ct", save_ciphertext, out),
                            ("decrypted.pt", save_plaintext,
                             decrypt(params, out, sk))):
        path = tmp_path / name
        save(str(path), obj)
        got[name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert got == PINNED_CONTAINERS


# ---------------------------------------------------------------------------
# Corruption.

def test_flipped_byte_names_the_file(params, ct, tmp_path):
    path = str(tmp_path / "corrupt.ct")
    save_ciphertext(path, ct)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x40
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SerializationError, match="corrupt.ct") as info:
        load_ciphertext(path, params)
    assert "checksum" in str(info.value)


def test_truncation_detected(params, ct, tmp_path):
    path = str(tmp_path / "short.ct")
    save_ciphertext(path, ct)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:len(raw) - 9])
    with pytest.raises(SerializationError):
        load_ciphertext(path, params)
    open(path, "wb").write(raw[:11])
    with pytest.raises(SerializationError, match="header"):
        load_ciphertext(path, params)


def test_bad_magic_and_kind_mismatch(params, ct, tmp_path):
    path = str(tmp_path / "odd.ct")
    save_ciphertext(path, ct)
    raw = bytearray(open(path, "rb").read())
    with pytest.raises(SerializationError, match="expected plaintext"):
        load_plaintext(path, params)
    raw[0] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(SerializationError, match="magic"):
        load_ciphertext(path, params)


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
        load_ciphertext(path, params)


def _scale_text(body, text):
    (old,) = struct.unpack("<I", body[:4])
    return struct.pack("<I", len(text)) + text + body[4 + old:]


def _poly_at(body):
    """Offset of the first polynomial block: after the scale text and the
    level and slot count."""
    return 4 + struct.unpack("<I", body[:4])[0] + 8


def _rep_code(body, code=2):
    body[_poly_at(body)] = code
    return body


def _word_at_modulus(body):
    at = _poly_at(body)
    (nlimbs,) = struct.unpack("<H", body[at + 1:at + 3])
    q = body[at + 7:at + 15]                 # the first limb's modulus
    words = at + 7 + 16 * nlimbs
    body[words:words + 8] = q
    return body


def _level(body, level=99):
    at = _poly_at(body) - 8
    body[at:at + 4] = struct.pack("<i", level)
    return body


def _slots(body, slots):
    at = _poly_at(body) - 4
    body[at:at + 4] = struct.pack("<I", slots)
    return body


def _blocks(body):
    """The fields before the polynomial blocks, then each block."""
    at = _poly_at(body)
    parts = [body[:at]]
    while at < len(body):
        _, nlimbs, n = struct.unpack("<BHI", body[at:at + 7])
        parts.append(body[at:at + 7 + nlimbs * (16 + 8 * n)])
        at += len(parts[-1])
    return parts


def _rewrite(path, edit):
    """Apply `edit` to the body of the container at `path`, checksum kept
    valid."""
    raw = open(path, "rb").read()
    body = bytes(edit(bytearray(raw[16:])))
    with open(path, "wb") as f:
        f.write(raw[:12] + struct.pack("<I", zlib.crc32(body)) + body)


@pytest.mark.parametrize("edit, what", [
    (lambda b: _scale_text(b, b"\xff\xfe/1"), "UTF-8"),
    (lambda b: _scale_text(b, b"1/0"), "malformed fraction"),
    (lambda b: _scale_text(b, b"0/1"), "scale is zero"),
    (_rep_code, "representation code 2"),
    (_word_at_modulus, "not below their modulus"),
    (_level, "level 99"),
    (lambda b: _rep_code(b, 0), "coefficient rep"),
    (lambda b: _slots(b, 3), "slot count 3 does not divide 32"),
    (lambda b: _slots(b, 0), "slot count 0 does not divide 32"),
], ids=["utf8", "zero-denominator", "zero-scale", "rep-code", "word-at-q",
        "level", "coeff-rep", "slots-3", "slots-0"])
def test_crafted_ciphertext_raises_serialization_error(tiny_params, tiny_sk,
                                                       tmp_path, edit, what):
    """A body the checksum accepts but the loader must not: its own error
    type, naming the file."""
    rng = np.random.default_rng(131)
    ct = encrypt(tiny_params, encode(tiny_params, message(tiny_params, rng)),
                 tiny_sk, rng)
    path = str(tmp_path / "crafted.ct")
    save_ciphertext(path, ct)
    _rewrite(path, edit)
    with pytest.raises(SerializationError, match="crafted.ct") as info:
        load_ciphertext(path, tiny_params)
    assert what in str(info.value)


@pytest.mark.parametrize("text", [b"2199023255552/2", b"1_099511627776/1",
                                  b" 1099511627776/1", b"1099511627776/+1",
                                  b"-1099511627776/-1"])
def test_scale_text_must_be_its_written_form(tiny_params, tiny_sk, tmp_path,
                                             text):
    """A scale parses only from the text `save_*` writes for it: lowest
    terms, bare digits.  Any other spelling is a body no writer made."""
    rng = np.random.default_rng(151)
    pt = encode(tiny_params, message(tiny_params, rng))
    path = str(tmp_path / "spelled.pt")
    save_plaintext(path, pt)
    assert pt.scale == 1 << 40
    _rewrite(path, lambda b: _scale_text(b, text))
    with pytest.raises(SerializationError, match="not in its written form"):
        load_plaintext(path, tiny_params)


def test_loaders_check_level_against_limbs(tiny_params, tiny_sk, tmp_path):
    """The level field is written and fixes the basis every block is read
    against: a plaintext whose level is off by one, and a ciphertext whose
    c1 block lies over fewer primes than c0's, are refused."""
    rng = np.random.default_rng(137)
    pt = encode(tiny_params, message(tiny_params, rng))
    ct = encrypt(tiny_params, pt, tiny_sk, rng)
    path = str(tmp_path / "off.pt")
    save_plaintext(path, pt)
    _rewrite(path, lambda b: _level(b, pt.level - 1))
    with pytest.raises(SerializationError, match="does not match"):
        load_plaintext(path, tiny_params)
    low = str(tmp_path / "low.ct")
    save_ciphertext(low, mod_drop(tiny_params, ct, 0))
    low_c1 = _blocks(open(low, "rb").read()[16:])[2]
    path = str(tmp_path / "mixed.ct")
    save_ciphertext(path, ct)
    _rewrite(path, lambda b: b"".join(_blocks(b)[:2]) + low_c1)
    with pytest.raises(SerializationError, match="limb count 1 does not"):
        load_ciphertext(path, tiny_params)


@pytest.mark.parametrize("slots", [3, 0, 64])
def test_plaintext_slot_count_follows_encode(tiny_params, tmp_path, slots):
    """A plaintext's slot count must be one `encode` accepts: at least
    one, and a divisor of n_ring / 2 = 32."""
    pt = encode(tiny_params, message(tiny_params, np.random.default_rng(157)))
    path = str(tmp_path / "slots.pt")
    save_plaintext(path, pt)
    _rewrite(path, lambda b: _slots(b, 32))
    assert load_plaintext(path, tiny_params).slots == 32
    _rewrite(path, lambda b: _slots(b, slots))
    with pytest.raises(SerializationError, match="slots.pt") as info:
        load_plaintext(path, tiny_params)
    assert f"slot count {slots} does not divide 32" in str(info.value)


def _saved(kind, params, sk, path):
    """A plaintext, ciphertext or relinearization key made under `params`,
    or the secret key `sk`, saved to `path`."""
    rng = np.random.default_rng(141)
    pt = encode(params, message(params, rng))
    if kind == "sk":
        save_secret_key(path, sk)
    elif kind == "pt":
        save_plaintext(path, pt)
    elif kind == "ct":
        save_ciphertext(path, encrypt(params, pt, sk, rng))
    else:
        save_evaluation_key(path, make_relin_key(params, sk, rng))


_LOADERS = {"pt": load_plaintext, "ct": load_ciphertext,
            "evk": load_evaluation_key, "sk": load_secret_key}
# Each differs from the tiny parameters in one way: the ring degree, the
# scale primes, the top level, or the digit count (alpha 3, one piece).
_OTHER = {"n128": dict(n_ring=128), "bits30": dict(scale_bits=30),
          "levels1": dict(levels=1), "dnum1": dict(alpha=3)}


@pytest.mark.parametrize("kind, other, what", [
    ("pt", "n128", "ring degree 64 is not n_ring = 128"),
    ("ct", "n128", "ring degree 64 is not n_ring = 128"),
    ("evk", "n128", "ring degree 64 is not n_ring = 128"),
    ("pt", "bits30", "not the parameters' level-2 basis"),
    ("ct", "bits30", "not the parameters' level-2 basis"),
    ("ct", "levels1", "not the parameters' level-2 basis"),
    ("evk", "bits30", "do not lie over the parameters' full basis"),
    ("evk", "dnum1", "3 key pieces, not dnum = 1"),
    ("sk", "n128", "ring degree 64 is not n_ring = 128"),
    ("sk", "bits30", "secret key does not lie over the parameters' full"),
    ("sk", "levels1", "secret key does not lie over the parameters' full"),
    ("sk", "dnum1", "secret key does not lie over the parameters' full"),
])
def test_loaders_check_against_params(tiny_params, tiny_sk, tmp_path, kind,
                                      other, what):
    """A well-formed file made under other parameters is refused, naming
    the file."""
    path = str(tmp_path / f"other.{kind}")
    _saved(kind, tiny_params, tiny_sk, path)
    _LOADERS[kind](path, tiny_params)
    with pytest.raises(SerializationError, match=f"other.{kind}") as info:
        _LOADERS[kind](path, replace(tiny_params, **_OTHER[other]))
    assert what in str(info.value)


def _without_last_prime(p):
    return restrict_poly(p, LimbBasis(p.basis.primes[:-1]))


def _kind_code_2(evk, path):
    save_evaluation_key(path, evk)
    _rewrite(path, lambda b: b"\x02" + b[1:])


def _no_pieces(evk, path):
    save_evaluation_key(path, replace(evk, pieces=()))


def _piece_halves_apart(evk, path):
    (b, a), *rest = evk.expanded().pieces
    save_evaluation_key(path, replace(
        evk, pieces=((b, _without_last_prime(a)), *rest)))


def _pieces_apart(evk, path):
    first, *rest = evk.expanded().pieces
    save_evaluation_key(path, replace(evk, pieces=(first, *(
        (_without_last_prime(b), _without_last_prime(a)) for b, a in rest))))


def _with_step(kind, step):
    """A key whose step field reads `step` under the kind code of `kind`:
    1 for "rot", 0 for "mult"."""
    code = b"\x01" if kind == "rot" else b"\x00"

    def craft(evk, path):
        save_evaluation_key(path, replace(evk, step=step))
        _rewrite(path, lambda b: code + b[1:])
    return craft


@pytest.mark.parametrize("craft, what", [
    (_kind_code_2, "kind code 2"),
    (_no_pieces, "0 key pieces, not dnum = 3"),
    (_piece_halves_apart, "limb count 3 does not match its 4 primes"),
    (_pieces_apart, "limb count 3 does not match its 4 primes"),
    (_with_step("rot", 0), "rot key with step 0"),
    (_with_step("rot", -5), "rot key with step -5"),
    (_with_step("rot", 40), "rot key with step 40"),
    (_with_step("mult", 3), "mult key with step 3"),
], ids=["kind-code", "no-pieces", "piece-halves", "pieces", "rot-step-0",
        "rot-step-neg5", "rot-step-40", "mult-step-3"])
def test_crafted_evaluation_key_raises_serialization_error(
        tiny_params, tiny_sk, tmp_path, craft, what):
    """Checksum-valid key containers that no key generation writes: a
    rotation key's step lies in [1, n_ring / 2) = [1, 32), a
    relinearization key's is 0."""
    evk = make_relin_key(tiny_params, tiny_sk, np.random.default_rng(139))
    assert len(evk.pieces) > 1
    path = str(tmp_path / "crafted.evk")
    craft(evk, path)
    with pytest.raises(SerializationError, match="crafted.evk") as info:
        load_evaluation_key(path, tiny_params)
    assert what in str(info.value)


# ---------------------------------------------------------------------------
# Any body the checksum accepts.

KINDS = ("plaintext", "ciphertext", "secret key", "evaluation key")
_SAVE_LOAD = {
    "plaintext": (save_plaintext, load_plaintext),
    "ciphertext": (save_ciphertext, load_ciphertext),
    "secret key": (save_secret_key, load_secret_key),
    "evaluation key": (save_evaluation_key, load_evaluation_key),
}
# Body offset of the first (q, root) field of each kind at the tiny
# parameters: a plaintext or ciphertext has the scale text
# "1099511627776/1" and its length, the level and slot count, then the
# first polynomial's rep code, limb count and ring degree; a secret key
# starts with its polynomial; a key has its kind code, step and piece
# count first.
FIRST_MODULUS = {"plaintext": 4 + 15 + 8 + 7, "ciphertext": 4 + 15 + 8 + 7,
                 "secret key": 7, "evaluation key": 11 + 7}
COMPOSITE = (1 << 41) + 1       # 1 mod 2^41, and a multiple of 3


@pytest.fixture(scope="module")
def tiny_files(tiny_params, tiny_sk, tmp_path_factory):
    """The container file bytes of one object of each kind."""
    rng = np.random.default_rng(149)
    pt = encode(tiny_params, message(tiny_params, rng))
    objects = {"plaintext": pt,
               "ciphertext": encrypt(tiny_params, pt, tiny_sk, rng),
               "secret key": tiny_sk,
               "evaluation key": make_relin_key(tiny_params, tiny_sk, rng)}
    path = tmp_path_factory.mktemp("bodies") / "object"
    files = {}
    for kind, obj in objects.items():
        _SAVE_LOAD[kind][0](str(path), obj)
        files[kind] = path.read_bytes()
        first = (obj.pieces[0][0] if kind == "evaluation key"
                 else obj.poly).basis.primes[0]
        at = 16 + FIRST_MODULUS[kind]
        assert files[kind][at:at + 16] == struct.pack("<QQ", first.q,
                                                      first.root)
    return files


def _with_body(path, original, body):
    """Write `original`'s header around `body`, checksum kept valid."""
    with open(path, "wb") as f:
        f.write(original[:12] + struct.pack("<I", zlib.crc32(body)) + body)


@pytest.mark.parametrize("kind", KINDS)
def test_composite_modulus_raises_serialization_error(
        tiny_params, tiny_files, tmp_path, time_limit, kind):
    """A first modulus that is 1 mod 2N but composite, with root 0 (search
    for one), is refused at once instead of searched without end."""
    body = bytearray(tiny_files[kind][16:])
    at = FIRST_MODULUS[kind]
    body[at:at + 16] = struct.pack("<QQ", COMPOSITE, 0)
    path = str(tmp_path / "composite.bin")
    _with_body(path, tiny_files[kind], bytes(body))
    with time_limit(10):
        with pytest.raises(SerializationError, match="composite.bin") as info:
            _SAVE_LOAD[kind][1](path, tiny_params)
    assert f"invalid modulus {COMPOSITE}" in str(info.value)


def _other_root(body, at):
    """Swap the first limb's root for its cube: another primitive 2N-th
    root of the same prime."""
    q, root = struct.unpack("<QQ", body[at:at + 16])
    cube = pow(root, 3, q)
    body[at + 8:at + 16] = struct.pack("<Q", cube)
    return f"invalid modulus {q} with root {cube}"


def _zero_root(body, at):
    """Root 0, which a `PrimeModulus` would search for; no writer writes it,
    and a file that names it cannot save back to the same bytes."""
    (q,) = struct.unpack("<Q", body[at:at + 8])
    body[at + 8:at + 16] = bytes(8)
    return f"invalid modulus {q} with root 0"


def _rep_code_at(body, at):
    body[at - 7] = 2
    return "unknown representation code 2"


def _coeff_rep_at(body, at):
    """Code 0, which named coefficient rep; no polynomial is stored so."""
    body[at - 7] = 0
    return "block in coefficient rep"


def _limb_count_up(body, at):
    (nlimbs,) = struct.unpack("<H", body[at - 6:at - 4])
    body[at - 6:at - 4] = struct.pack("<H", nlimbs + 1)
    return f"limb count {nlimbs + 1} does not match its {nlimbs} primes"


@pytest.mark.parametrize("field", [_rep_code_at, _limb_count_up, _other_root,
                                   _zero_root, _coeff_rep_at],
                         ids=["rep-code", "limb-count", "root", "root-zero",
                              "coeff-rep"])
@pytest.mark.parametrize("kind", KINDS)
def test_block_header_fields_checked(tiny_params, tiny_files, tmp_path, kind,
                                     field):
    """Each header field of a block is read against the parameters: a
    representation code no writer uses, a limb count off by one, a valid
    but different root of the right prime, root 0, and the coefficient-rep
    code 0 are each refused."""
    body = bytearray(tiny_files[kind][16:])
    what = field(body, FIRST_MODULUS[kind])
    path = str(tmp_path / "header.bin")
    _with_body(path, tiny_files[kind], bytes(body))
    with pytest.raises(SerializationError, match="header.bin") as info:
        _SAVE_LOAD[kind][1](path, tiny_params)
    assert what in str(info.value)


def test_loading_builds_no_modulus(tiny_params, tiny_files, tmp_path,
                                   monkeypatch):
    """Every block is read against the parameters' own primes: loading a
    container of each kind constructs no `PrimeModulus` from its bytes."""
    basis_d(tiny_params, tiny_params.levels)        # the chains are cached
    built = []
    real = PrimeModulus.__post_init__

    def counting(self):
        built.append(self.q)
        real(self)

    monkeypatch.setattr(PrimeModulus, "__post_init__", counting)
    path = tmp_path / "object"
    for kind in KINDS:
        path.write_bytes(tiny_files[kind])
        _SAVE_LOAD[kind][1](str(path), tiny_params)
    assert built == []


# Half the mutations land in the leading fields, and some write the
# characters a number's text is made of.
_AT = st.integers(0, 63) | st.integers(0, 1 << 16)
_BYTE = st.binary(min_size=1, max_size=1) | st.sampled_from(
    [bytes([c]) for c in b"0123456789/-+_ \t"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), at=_AT, patch=_BYTE)
@example(kind="ciphertext", at=FIRST_MODULUS["ciphertext"],
         patch=struct.pack("<QQ", COMPOSITE, 0))
def test_mutated_body_round_trips_or_raises(tiny_params, tiny_files,
                                            tmp_path_factory, time_limit,
                                            kind, at, patch):
    """Overwrite body bytes and fix the checksum: the loader either
    returns an object that saves back to exactly those bytes or raises
    SerializationError, and nothing else."""
    body = bytearray(tiny_files[kind][16:])
    at %= len(body) - len(patch) + 1
    body[at:at + len(patch)] = patch
    body = bytes(body)
    folder = tmp_path_factory.getbasetemp()
    path, again = folder / "mutated.bin", folder / "resaved.bin"
    _with_body(path, tiny_files[kind], body)
    save, load = _SAVE_LOAD[kind]
    try:
        with time_limit(10):
            obj = load(str(path), tiny_params)
    except SerializationError:
        return
    save(str(again), obj)
    assert again.read_bytes()[16:] == body


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


# A valid value other than the default for every init field of
# `CkksParams`.  A field with no entry fails the test below: a new field
# must reach the parameter file, or leave the init fields.
NON_DEFAULT_PARAMS = dict(n_ring=1024, n_slots=32, levels=5, alpha=3,
                          scale_bits=30, q0_bits=50, aux_bits=55, sigma=3.5)


def test_every_params_field_survives_its_file(tmp_path):
    """Each init field, set away from its default, reads back from the
    file `write_params` made, so no setting is silently lost."""
    names = [f.name for f in fields(CkksParams) if f.init]
    assert [n for n in names if n not in NON_DEFAULT_PARAMS] == []
    assert sorted(NON_DEFAULT_PARAMS) == sorted(names)
    defaults = CkksParams()
    assert [n for n, v in NON_DEFAULT_PARAMS.items()
            if v == getattr(defaults, n)] == []
    params = CkksParams(**NON_DEFAULT_PARAMS)
    path = str(tmp_path / "params.txt")
    write_params(path, params)
    back, _ = read_params(path)
    assert [n for n in names
            if getattr(back, n) != getattr(params, n)] == []


def test_params_file_expresses_digit_count(tmp_path):
    path = str(tmp_path / "params.txt")
    path2 = str(tmp_path / "p2.txt")
    open(path, "w").write("n_ring = 64\nn_slots = 4\nlevels = 5\ndnum = 2\n")
    back, _ = read_params(path)
    assert back.alpha == 3 and back.dnum == 2
    open(path2, "w").write("levels = 5\ndnum = 4\n")
    with pytest.raises(SerializationError, match="divide"):
        read_params(path2)


def test_params_file_refuses_a_small_auxiliary_modulus(tmp_path):
    """Parameters whose P is too small for the largest digit piece are
    refused as the file's fault, naming it."""
    path = tmp_path / "params.txt"
    path.write_text(PARAMS_SCHEMA + "\naux_bits = 40\n")
    with pytest.raises(SerializationError,
                       match="auxiliary modulus.*params.txt"):
        read_params(str(path))
    path.write_text(PARAMS_SCHEMA + "\naux_bits = 47\n")
    assert read_params(str(path))[0].aux_bits == 47


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-1",
                                  str(2 ** 60)])
def test_params_file_refuses_a_bad_sigma(tmp_path, text):
    """A width that would make error samples garbage is refused as the
    file's fault; sigma = 0 still loads."""
    path = tmp_path / "params.txt"
    path.write_text(f"sigma = {text}\n")
    with pytest.raises(SerializationError, match="sigma"):
        read_params(str(path))
    path.write_text("sigma = 0\n")
    assert read_params(str(path))[0].sigma == 0.0


def test_one_digit_rule_in_params_profile_and_file(tmp_path):
    """`CkksParams` owns the digit rule: over levels 1-7 and alpha 1-9 a
    set builds exactly when alpha divides levels + 1, and each set that
    builds has the cost model's digit count and reads back from its
    file."""
    path = str(tmp_path / "params.txt")
    for levels in range(1, 8):
        for alpha in range(1, 10):
            try:
                params = CkksParams(n_ring=64, n_slots=4, levels=levels,
                                    alpha=alpha)
            except ConfigurationError:
                assert (levels + 1) % alpha, (levels, alpha)
                continue
            assert (levels + 1) % alpha == 0, (levels, alpha)
            assert ParamProfile.from_params(params).dnum == params.dnum
            write_params(path, params)
            assert read_params(path)[0] == params


def test_params_file_refuses_what_it_could_not_have_written(tmp_path):
    """Without a dnum line alpha keeps its default, 4, which does not
    divide levels + 1 = 7: `CkksParams` refuses those parameters, so no
    file could hold them, and reading one is refused, naming the file."""
    path = tmp_path / "params.txt"
    path.write_text(PARAMS_SCHEMA + "\nlevels = 6\n")
    with pytest.raises(SerializationError,
                       match="alpha 4 does not divide .*params.txt"):
        read_params(str(path))


@pytest.mark.parametrize("line,what", [
    ("n_ring 8192", "expected key = value"),
    ("edges = 3", "unknown key"),
    ("levels = seven", "malformed value"),
    ("n_slots = 8192", "invalid parameters"),
    # No NTT prime is this narrow: refused naming the file.
    ("scale_bits = -1", "prime widths out of range .*bad.txt"),
    ("scale_bits = 15", "not enough 15-bit primes .*bad.txt"),
])
def test_params_file_rejects_bad_lines(tmp_path, line, what):
    path = str(tmp_path / "bad.txt")
    open(path, "w").write(PARAMS_SCHEMA + "\n" + line + "\n")
    with pytest.raises(SerializationError, match=what):
        read_params(path)


def test_params_file_refuses_a_repeated_key(tmp_path):
    """Two files that differ only after a repeated key would otherwise read
    as one parameter set."""
    path = tmp_path / "params.txt"
    path.write_text(PARAMS_SCHEMA + "\nn_ring = 64\nn_slots = 4\n"
                    "n_ring = 128\n")
    with pytest.raises(SerializationError,
                       match="line 4: repeated key 'n_ring'"):
        read_params(str(path))


def test_params_file_refuses_a_negative_seed(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text(PARAMS_SCHEMA + "\nseed = -5\n")
    with pytest.raises(SerializationError, match="line 2: seed -5"):
        read_params(str(path))
    path.unlink()
    with pytest.raises(SerializationError, match="negative"):
        write_params(str(path), CkksParams(), seed=-1)
    assert not path.exists()
    write_params(str(path), CkksParams(), seed=0)
    assert read_params(str(path))[1] == 0


def test_params_file_missing(tmp_path):
    with pytest.raises(SerializationError, match="cannot read"):
        read_params(str(tmp_path / "absent.txt"))


def test_params_file_unwritable_path():
    with pytest.raises(SerializationError, match="cannot write") as err:
        write_params("/nonexistent-dir/x.txt", CkksParams())
    assert "/nonexistent-dir/x.txt" in str(err.value)
