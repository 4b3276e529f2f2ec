"""Binary and text serialization for keys and ciphertexts.

Binary containers share one layout: an eight-byte magic, a format
version, a kind tag, and a CRC32 of the body, followed by kind-specific
fields and little-endian eight-byte words in index-major order.  Any
structural mismatch or checksum failure raises SerializationError with
the offending path in the message.

Loaders read each block against the parameters: its basis is fixed from
`params` (and the level field) first, and the block's header must name
exactly that ring degree and those primes; no modulus is built from bytes.
Every polynomial is evaluation-rep (`rnspoly`), so a block's rep byte is
written as the constant 1, and any other code, 0 included, is refused.

The one text format, parameter files (key = value lines), carries a
schema-version comment on the first line so fixture diffs stay stable.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction

import numpy as np

from .ckks import (Ciphertext, CkksParams, EvaluationKey, Plaintext,
                   SecretKey, basis_c, basis_d)
from .errors import ConfigurationError, SerializationError
from .rnspoly import LimbBasis, RnsPolynomial

MAGIC = b"RNSCKKS\x00"
VERSION = 1

KIND_PLAINTEXT = 1
KIND_CIPHERTEXT = 2
KIND_SECRET_KEY = 3
KIND_EVALUATION_KEY = 4

_KIND_NAMES = {
    KIND_PLAINTEXT: "plaintext",
    KIND_CIPHERTEXT: "ciphertext",
    KIND_SECRET_KEY: "secret key",
    KIND_EVALUATION_KEY: "evaluation key",
}


# ---------------------------------------------------------------------------
# Body writer / reader.

class _Body:
    """Append-only byte builder for container bodies."""

    def __init__(self):
        self.parts: list[bytes] = []

    def pack(self, fmt: str, *values):
        self.parts.append(struct.pack("<" + fmt, *values))

    def put_bytes(self, raw: bytes):
        self.pack("I", len(raw))
        self.parts.append(raw)

    def put_text(self, text: str):
        self.put_bytes(text.encode("utf-8"))

    def put_fraction(self, f: Fraction):
        self.put_text(f"{f.numerator}/{f.denominator}")

    def put_words(self, arr: np.ndarray, dtype: str):
        self.parts.append(np.ascontiguousarray(arr).astype(dtype).tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Cursor:
    """Bounds-checked reader over a container body."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, why: str):
        raise SerializationError(why, self.path)

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            self.fail("truncated body")
        raw = self.data[self.pos:self.pos + count]
        self.pos += count
        return raw

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def get_bytes(self) -> bytes:
        (count,) = self.unpack("I")
        return self.take(count)

    def get_text(self) -> str:
        raw = self.get_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            self.fail(f"text is not UTF-8: {raw!r}")

    def get_fraction(self) -> Fraction:
        """Only the text `put_fraction` writes: lowest terms, no sign on
        the denominator, no spaces or underscores."""
        text = self.get_text()
        try:
            num, den = text.split("/")
            f = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            self.fail(f"malformed fraction {text!r}")
        if text != f"{f.numerator}/{f.denominator}":
            self.fail(f"fraction {text!r} is not in its written form")
        return f

    def get_words(self, shape: tuple, dtype: str) -> np.ndarray:
        count = int(np.prod(shape))
        raw = self.take(count * 8)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def done(self):
        if self.pos != len(self.data):
            self.fail("trailing bytes after payload")


def _write_container(path: str, kind: int, body: bytes):
    header = MAGIC + struct.pack("<HHI", VERSION, kind, zlib.crc32(body))
    try:
        with open(path, "wb") as f:
            f.write(header + body)
    except OSError as e:
        raise SerializationError(f"cannot write container: {e}", path)


def _read_container(path: str, kind: int) -> _Cursor:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise SerializationError(f"cannot read container: {e}", path)
    head = struct.calcsize("<8sHHI")
    if len(raw) < head:
        raise SerializationError("file shorter than header", path)
    magic, version, found, crc = struct.unpack("<8sHHI", raw[:head])
    if magic != MAGIC:
        raise SerializationError("bad magic", path)
    if version != VERSION:
        raise SerializationError(f"unsupported version {version}", path)
    if found != kind:
        raise SerializationError(
            f"expected {_KIND_NAMES[kind]}, found kind {found}", path)
    body = raw[head:]
    if zlib.crc32(body) != crc:
        raise SerializationError("checksum mismatch", path)
    return _Cursor(body, path)


# ---------------------------------------------------------------------------
# Polynomial block.

def _put_poly(body: _Body, p: RnsPolynomial):
    """A one-period polynomial is written with its whole rows."""
    p = p.widened()
    body.pack("BHI", 1, len(p.basis), p.n)
    for pm in p.basis:
        body.pack("QQ", pm.q, pm.root)
    body.put_words(p.limbs, "<u8")


def _get_poly(cur: _Cursor, basis: LimbBasis, mismatch: str) -> RnsPolynomial:
    """One block over `basis`: every header field is checked against it
    before a word is read.  `mismatch` leads the refusal of a limb count or
    (q, root) pair that is not the basis's own."""
    rep_code, nlimbs, n = cur.unpack("BHI")
    if rep_code == 0:
        cur.fail("block in coefficient rep (code 0); only evaluation rep "
                 "(code 1) is stored")
    if rep_code != 1:
        cur.fail(f"unknown representation code {rep_code}")
    if n != basis.ring_degree:
        cur.fail(f"ring degree {n} is not n_ring = {basis.ring_degree}")
    if nlimbs != len(basis):
        cur.fail(f"{mismatch}: limb count {nlimbs} does not match its "
                 f"{len(basis)} primes")
    for pm in basis:
        q, root = cur.unpack("QQ")
        if (q, root) != (pm.q, pm.root):
            cur.fail(f"{mismatch}: invalid modulus {q} with root {root}")
    limbs = cur.get_words((nlimbs, n), "<u8")
    for pm, row in zip(basis, limbs):
        if np.any(row >= np.uint64(pm.q)):
            cur.fail(f"limb words not below their modulus {pm.q}")
    return RnsPolynomial(basis, limbs)


# ---------------------------------------------------------------------------
# Scheme objects.  Each loader fixes the basis from `params` first and reads
# every block against it.

def _get_leading_fields(cur: _Cursor, params: CkksParams):
    """A plaintext's or ciphertext's scale, slot count and level basis, with
    the lead of a block refusal at that level."""
    scale = cur.get_fraction()
    if scale == 0:
        cur.fail("scale is zero")
    level, slots = cur.unpack("iI")
    if slots < 1 or (params.n_ring // 2) % slots:      # `encode`'s rule
        cur.fail(f"slot count {slots} does not divide {params.n_ring // 2}")
    mismatch = f"basis is not the parameters' level-{level} basis"
    if not 0 <= level <= params.levels:
        cur.fail(f"{mismatch}: level {level} outside [0, {params.levels}]")
    return scale, slots, basis_c(params, level), mismatch


def save_plaintext(path: str, pt: Plaintext):
    body = _Body()
    body.put_fraction(pt.scale)
    body.pack("iI", pt.level, pt.slots)
    _put_poly(body, pt.poly)
    _write_container(path, KIND_PLAINTEXT, body.getvalue())


def load_plaintext(path: str, params: CkksParams) -> Plaintext:
    cur = _read_container(path, KIND_PLAINTEXT)
    scale, slots, basis, mismatch = _get_leading_fields(cur, params)
    poly = _get_poly(cur, basis, mismatch)
    cur.done()
    return Plaintext(poly, scale, slots)


def save_ciphertext(path: str, ct: Ciphertext):
    """The level, then c0's block, then c1's block."""
    body = _Body()
    body.put_fraction(ct.scale)
    body.pack("iI", ct.level, ct.slots)
    _put_poly(body, ct.c0)
    _put_poly(body, ct.c1)
    _write_container(path, KIND_CIPHERTEXT, body.getvalue())


def load_ciphertext(path: str, params: CkksParams) -> Ciphertext:
    cur = _read_container(path, KIND_CIPHERTEXT)
    scale, slots, basis, mismatch = _get_leading_fields(cur, params)
    c0 = _get_poly(cur, basis, mismatch)
    c1 = _get_poly(cur, basis, mismatch)
    cur.done()
    limbs = np.stack([c0.limbs, c1.limbs], axis=1)
    return Ciphertext(RnsPolynomial(basis, limbs), scale, slots)


def save_secret_key(path: str, sk: SecretKey):
    body = _Body()
    _put_poly(body, sk.poly)
    _write_container(path, KIND_SECRET_KEY, body.getvalue())


def load_secret_key(path: str, params: CkksParams) -> SecretKey:
    cur = _read_container(path, KIND_SECRET_KEY)
    poly = _get_poly(cur, basis_d(params, params.levels), "secret key does "
                     "not lie over the parameters' full basis")
    cur.done()
    return SecretKey(poly)


def save_evaluation_key(path: str, evk: EvaluationKey):
    """Every a_i is written as its limbs, expanded if the key holds its
    seed, so the bytes do not depend on how the key keeps it.  The kind
    code follows from the step: 1 for a rotation key, 0 for
    relinearization."""
    body = _Body()
    body.pack("BqH", 1 if evk.step else 0, evk.step, len(evk.pieces))
    for b, a in evk.expanded().pieces:
        _put_poly(body, b)
        _put_poly(body, a)
    _write_container(path, KIND_EVALUATION_KEY, body.getvalue())


def load_evaluation_key(path: str, params: CkksParams) -> EvaluationKey:
    """Only a step key generation writes: 0 for a relinearization key, and
    one in [1, n_ring / 2) for a rotation key (`normalize_step`)."""
    cur = _read_container(path, KIND_EVALUATION_KEY)
    kind_code, step, npieces = cur.unpack("BqH")
    if kind_code not in (0, 1):
        cur.fail(f"unknown key kind code {kind_code}")
    kind = "rot" if kind_code else "mult"
    if step not in (range(1, params.n_ring // 2) if kind_code else (0,)):
        cur.fail(f"{kind} key with step {step}")
    if npieces != params.dnum:
        cur.fail(f"{npieces} key pieces, not dnum = {params.dnum}")
    basis = basis_d(params, params.levels)
    mismatch = "key pieces do not lie over the parameters' full basis"
    pieces = tuple((_get_poly(cur, basis, mismatch),
                    _get_poly(cur, basis, mismatch)) for _ in range(npieces))
    cur.done()
    return EvaluationKey(step, pieces)


# ---------------------------------------------------------------------------
# Parameter files.

_PARAM_KEYS = ("n_ring", "n_slots", "levels", "dnum", "scale_bits",
               "q0_bits", "aux_bits", "sigma", "seed")
PARAMS_SCHEMA = "# rnsckks-params v1"


def write_params(path: str, params: CkksParams, seed: int | None = None):
    """Write a parameter file; a negative seed cannot be written.

    The file stores dnum, not alpha: `CkksParams` owns the digit rule
    (alpha divides levels + 1), so (levels + 1) / dnum restores alpha."""
    if seed is not None and seed < 0:
        raise SerializationError(
            f"seed {seed} is negative; seeds are non-negative", path)
    lines = [PARAMS_SCHEMA,
             f"n_ring = {params.n_ring}",
             f"n_slots = {params.n_slots}",
             f"levels = {params.levels}",
             f"dnum = {params.dnum}",
             f"scale_bits = {params.scale_bits}",
             f"q0_bits = {params.q0_bits}",
             f"aux_bits = {params.aux_bits}",
             f"sigma = {params.sigma}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    try:
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise SerializationError(f"cannot write parameter file: {e}", path)


def read_params(path: str) -> tuple[CkksParams, int | None]:
    """Parse a parameter file; returns the params and an optional seed.

    Each key may appear once, a seed must be non-negative, and a dnum
    must divide levels + 1.  Without a dnum line alpha keeps its default;
    parameters that `CkksParams` refuses, by its digit rule (levels = 6
    under alpha = 4) or any other, are refused naming the file."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise SerializationError(f"cannot read parameter file: {e}", path)
    values: dict = {}
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise SerializationError(f"line {lineno}: expected key = value",
                                     path)
        key, _, val = text.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARAM_KEYS:
            raise SerializationError(f"line {lineno}: unknown key {key!r}",
                                     path)
        if key in values:
            raise SerializationError(f"line {lineno}: repeated key {key!r}",
                                     path)
        try:
            values[key] = float(val) if key == "sigma" else int(val)
        except ValueError:
            raise SerializationError(
                f"line {lineno}: malformed value for {key}", path)
        if key == "seed" and values[key] < 0:
            raise SerializationError(
                f"line {lineno}: seed {values[key]} is negative", path)
    seed = values.pop("seed", None)
    dnum = values.pop("dnum", None)
    if dnum is not None:
        levels = values.get("levels", CkksParams.levels)
        if dnum < 1 or (levels + 1) % dnum:
            raise SerializationError("dnum must divide levels + 1", path)
        values["alpha"] = (levels + 1) // dnum
    try:
        params = CkksParams(**values)
    except ConfigurationError as e:
        raise SerializationError(f"invalid parameters: {e}", path)
    return params, seed
