"""Binary and text serialization for keys, ciphertexts, and plans.

Binary containers share one layout: an eight-byte magic, a format
version, a kind tag, and a CRC32 of the body, followed by kind-specific
fields and little-endian eight-byte words in index-major order.  Any
structural mismatch or checksum failure raises SerializationError with
the offending path in the message.

Text formats cover parameter files (key = value lines) and switching-key
usage logs (one op per line).  Both carry a schema-version comment on
the first line so fixture diffs stay stable.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ckks import Ciphertext, CkksParams, EvaluationKey, Plaintext, SecretKey
from .errors import SerializationError
from .hdft import EvkUsageLog, LogEntry, PlaintextSeed
from .modmath import PrimeModulus
from .rnspoly import COEFF, EVAL, LimbBasis, RnsPolynomial

MAGIC = b"RNSCKKS\x00"
VERSION = 1

KIND_PLAINTEXT = 1
KIND_CIPHERTEXT = 2
KIND_SECRET_KEY = 3
KIND_EVALUATION_KEY = 4
KIND_PLAN_SEEDS = 5

_KIND_NAMES = {
    KIND_PLAINTEXT: "plaintext",
    KIND_CIPHERTEXT: "ciphertext",
    KIND_SECRET_KEY: "secret key",
    KIND_EVALUATION_KEY: "evaluation key",
    KIND_PLAN_SEEDS: "plan seeds",
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
        text = self.get_text()
        try:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            self.fail(f"malformed fraction {text!r}")

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
    body.pack("BHI", 1 if p.rep == EVAL else 0, len(p.basis), p.n)
    for pm in p.basis:
        body.pack("QQ", pm.q, pm.root)
    body.put_words(p.limbs, "<u8")


def _get_poly(cur: _Cursor) -> RnsPolynomial:
    rep_code, nlimbs, n = cur.unpack("BHI")
    if rep_code not in (0, 1):
        cur.fail(f"unknown representation code {rep_code}")
    if n < 2 or n & (n - 1):
        cur.fail(f"ring degree {n} is not a power of two")
    primes = []
    for _ in range(nlimbs):
        q, root = cur.unpack("QQ")
        try:
            primes.append(PrimeModulus(int(q), 2 * n, int(root)))
        except Exception:
            cur.fail(f"invalid modulus {q}")
    limbs = cur.get_words((nlimbs, n), "<u8")
    for pm, row in zip(primes, limbs):
        if np.any(row >= np.uint64(pm.q)):
            cur.fail(f"limb words not below their modulus {pm.q}")
    try:
        return RnsPolynomial(LimbBasis(tuple(primes)),
                             EVAL if rep_code else COEFF, limbs)
    except Exception as e:
        cur.fail(f"inconsistent polynomial block: {e}")


# ---------------------------------------------------------------------------
# Scheme objects.

def _check_level(cur: _Cursor, level: int, poly: RnsPolynomial):
    if level != len(poly.basis) - 1:
        cur.fail(f"level {level} does not match {len(poly.basis)} limbs")


def save_plaintext(path: str, pt: Plaintext):
    body = _Body()
    body.put_fraction(pt.scale)
    body.pack("iI", pt.level, pt.slots)
    _put_poly(body, pt.poly)
    _write_container(path, KIND_PLAINTEXT, body.getvalue())


def load_plaintext(path: str) -> Plaintext:
    cur = _read_container(path, KIND_PLAINTEXT)
    scale = cur.get_fraction()
    level, slots = cur.unpack("iI")
    poly = _get_poly(cur)
    cur.done()
    _check_level(cur, level, poly)
    return Plaintext(poly, scale, level, slots)


def save_ciphertext(path: str, ct: Ciphertext):
    body = _Body()
    body.put_fraction(ct.scale)
    body.pack("iI", ct.level, ct.slots)
    _put_poly(body, ct.c0)
    _put_poly(body, ct.c1)
    _write_container(path, KIND_CIPHERTEXT, body.getvalue())


def load_ciphertext(path: str) -> Ciphertext:
    cur = _read_container(path, KIND_CIPHERTEXT)
    scale = cur.get_fraction()
    level, slots = cur.unpack("iI")
    c0 = _get_poly(cur)
    c1 = _get_poly(cur)
    cur.done()
    if c1.basis != c0.basis:
        cur.fail("c0 and c1 lie over different bases")
    _check_level(cur, level, c0)
    return Ciphertext(c0, c1, scale, level, slots)


def save_secret_key(path: str, sk: SecretKey):
    body = _Body()
    _put_poly(body, sk.poly)
    _write_container(path, KIND_SECRET_KEY, body.getvalue())


def load_secret_key(path: str, params: CkksParams) -> SecretKey:
    cur = _read_container(path, KIND_SECRET_KEY)
    poly = _get_poly(cur)
    cur.done()
    if poly.n != params.n_ring:
        raise SerializationError(
            f"secret key ring degree {poly.n} does not match parameters",
            path)
    return SecretKey(params, poly)


def save_evaluation_key(path: str, evk: EvaluationKey):
    body = _Body()
    body.pack("BqH", 1 if evk.kind == "rot" else 0, evk.step,
              len(evk.pieces))
    for b, a in evk.pieces:
        _put_poly(body, b)
        _put_poly(body, a)
    _write_container(path, KIND_EVALUATION_KEY, body.getvalue())


def load_evaluation_key(path: str) -> EvaluationKey:
    cur = _read_container(path, KIND_EVALUATION_KEY)
    kind_code, step, npieces = cur.unpack("BqH")
    if kind_code not in (0, 1):
        cur.fail(f"unknown key kind code {kind_code}")
    if npieces == 0:
        cur.fail("evaluation key has no pieces")
    pieces = tuple((_get_poly(cur), _get_poly(cur))
                   for _ in range(npieces))
    cur.done()
    basis = pieces[0][0].basis
    for b, a in pieces:
        if a.basis != b.basis:
            cur.fail("b and a of a key piece lie over different bases")
        if b.basis != basis:
            cur.fail("key pieces lie over different bases")
    return EvaluationKey("rot" if kind_code else "mult", step, pieces)


# ---------------------------------------------------------------------------
# Transform plans, stored as their single-limb constant seeds.

@dataclass(frozen=True)
class StageSeeds:
    level: int
    g: int
    minks_roll: int
    center_only: bool
    cells: dict  # (i1, i2) -> PlaintextSeed


@dataclass(frozen=True)
class PlanSeeds:
    """Portable image of a transform plan: shape plus seeded constants."""

    direction: str
    size: int
    k: int
    k1: int
    k2: int
    const_scale: Fraction
    stages: tuple[StageSeeds, ...]


def save_plan_seeds(path: str, plan):
    consts = plan.stage_constants("minks-oflimb")
    body = _Body()
    body.pack("BIBBBH", 0 if plan.direction == "dft" else 1, plan.size,
              plan.k, plan.k1, plan.k2, len(plan.stages))
    body.put_fraction(Fraction(plan.const_scale))
    for st, cells in zip(plan.stages, consts):
        body.pack("iQQBH", st.level, st.g, st.minks_roll,
                  1 if st.center_only else 0, len(cells))
        for (i1, i2), seed in sorted(cells.items()):
            body.pack("BB", i1, i2)
            body.put_fraction(seed.scale)
            body.put_text(seed.tag)
            body.pack("I", len(seed.q0_limb))
            body.put_words(seed.q0_limb, "<i8")
    _write_container(path, KIND_PLAN_SEEDS, body.getvalue())


def load_plan_seeds(path: str) -> PlanSeeds:
    cur = _read_container(path, KIND_PLAN_SEEDS)
    dir_code, size, k, k1, k2, nstages = cur.unpack("BIBBBH")
    const_scale = cur.get_fraction()
    stages = []
    for _ in range(nstages):
        level, g, roll, center, ncells = cur.unpack("iQQBH")
        cells = {}
        for _ in range(ncells):
            i1, i2 = cur.unpack("BB")
            scale = cur.get_fraction()
            tag = cur.get_text()
            (nwords,) = cur.unpack("I")
            limb = cur.get_words((nwords,), "<i8")
            cells[(i1, i2)] = PlaintextSeed(limb, scale, tag)
        stages.append(StageSeeds(level, int(g), int(roll), bool(center),
                                 cells))
    cur.done()
    return PlanSeeds("dft" if dir_code == 0 else "idft", size, k, k1, k2,
                     const_scale, tuple(stages))


# ---------------------------------------------------------------------------
# Parameter files.

_PARAM_KEYS = ("n_ring", "n_slots", "levels", "dnum", "scale_bits",
               "q0_bits", "aux_bits", "sigma", "seed")
PARAMS_SCHEMA = "# rnsckks-params v1"


def write_params(path: str, params: CkksParams, seed: int | None = None):
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
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_params(path: str) -> tuple[CkksParams, int | None]:
    """Parse a parameter file; returns the params and an optional seed."""
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
        try:
            values[key] = float(val) if key == "sigma" else int(val)
        except ValueError:
            raise SerializationError(
                f"line {lineno}: malformed value for {key}", path)
    seed = values.pop("seed", None)
    dnum = values.pop("dnum", None)
    if dnum is not None:
        levels = values.get("levels", CkksParams.levels)
        if dnum < 1 or (levels + 1) % dnum:
            raise SerializationError("dnum must divide levels + 1", path)
        values["alpha"] = (levels + 1) // dnum
    try:
        return CkksParams(**values), seed
    except Exception as e:
        raise SerializationError(f"invalid parameters: {e}", path)


# ---------------------------------------------------------------------------
# Usage-log text format.

EVKLOG_SCHEMA = "# rnsckks-evklog v1"


def write_usage_log(path: str, log: EvkUsageLog):
    lines = [EVKLOG_SCHEMA]
    for e in log.entries:
        lines.append(f"{e.op} {e.transform} {e.stage} {e.amount} "
                     f"{e.evk_id} {e.kind or '-'} {int(e.performed)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_usage_log(path: str) -> EvkUsageLog:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise SerializationError(f"cannot read usage log: {e}", path)
    if not lines or lines[0].strip() != EVKLOG_SCHEMA:
        raise SerializationError("missing evklog schema header", path)
    log = EvkUsageLog()
    for lineno, line in enumerate(lines[1:], 2):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) != 7:
            raise SerializationError(f"line {lineno}: expected 7 fields",
                                     path)
        op, transform, stage, amount, evk_id, kind, performed = fields
        if op not in ("hrot", "pmult") or kind not in ("load", "reuse", "-") \
                or performed not in ("0", "1"):
            raise SerializationError(f"line {lineno}: malformed record",
                                     path)
        try:
            entry = LogEntry(transform, int(stage), op, int(amount),
                             int(evk_id), "" if kind == "-" else kind,
                             performed == "1")
        except ValueError:
            raise SerializationError(f"line {lineno}: malformed numbers",
                                     path)
        # Replayed, so the load/reuse state is the one the entries imply.
        if op == "hrot":
            log.note_rotation(entry.transform, entry.stage, entry.amount,
                              entry.evk_id, entry.performed)
        else:
            log.note_pmult(entry.transform, entry.stage)
        if log.entries[-1] != entry:
            raise SerializationError(
                f"line {lineno}: record does not replay as logged", path)
    return log
