"""FFT-like homomorphic transforms and the bootstrap pipeline around them.

The packed embedding factors into log2(n) radix-2 butterflies; merging k
adjacent butterflies gives a stage matrix with 2^(k+1) - 1 diagonals at
offsets i * g for |i| < 2^k, where g is the stage's unit stride.  A plan
evaluates one stage per level as a baby-step/giant-step sum of rotated,
constant-multiplied copies of the ciphertext, then rescales.

Three variants share a plan.  The rotations each stage performs are
`PassShape.rotations` (in `costmodel`), (step, amount) pairs, the step
the amount mod size: `hdft_apply` rotates by each step and logs its
amount, `required_steps` makes a key per step and `hdft_pass_cost`
prices them; a step of 0 is a no-op that loads and costs nothing.
`hdft_apply` adds the data flow:

  baseline      one pre-rotation by -2^k * g, baby steps fanned out from
                it and giant steps that rotate each giant row's inner sum;
                each amount rotates by its own step, so an iteration loads
                2^k1 + 2^k2 - 1 keys, fewer where amounts size apart name
                one step: at the wrap stage, g = size / 2^k, and for k = 1
                at g = size / 4.
  minks         baby rotations chain one stride-g key and the giant sum
                folds Horner-style through one stride-G key (G = 2^k1 * g),
                so an iteration loads at most two keys (one at a wrap
                stage with k2 = 1, whose giant step is 0).  Without the
                pre-rotation each stage's output is rotated by (2^k - 1) g,
                absorbed into the next stage's constants (a cyclic roll,
                `PassShape.minks_roll`); the total, always -1 mod n, is
                repaired by one stride-1 rotation of the DFT's input or of
                the IDFT's output.
  minks-oflimb  minks with plan constants stored as single-limb seeds and
                extended to the working basis on the fly, one giant row
                (the cells that share i2) right before that row's pmults,
                so at most 2^k1 widened plaintexts are alive at a time;
                the extension is bit-identical to full precomputation
                whenever the coefficients fit the seed prime.

The diagonals of a stage repeat every 2^k * g slots, the length of its
longest butterfly (a butterfly of length l repeats every l slots, and so
do products and rolls of such diagonals), so `DftPlan.stage_constants`
encodes each from that one period: a row of M = 2^(k+1) * g
coefficients, an element of Z[X^(N/M)].  A baseline or min-KS plaintext,
and a widened seed, holds its M-point transform, one period of M
evaluation words per limb, which the giant-row sum broadcasts over the
baby steps' full rows (`_row_sum`); a seed is that row and widens
through M-point transforms.
At full width with N = 2^13 and k = 6, the constants of IDFT's last
stage and DFT's first hold 128 words per limb (or per seed), those of
the two g = 64 stages N words.

A plan is its shape (direction, size, k, split, one level per stage),
and stage s is named only as (plan, s): everything about it is derived
from the shape, so the stages that run are the ones the cost model
prices.  Every stage has all 2^(k+1) - 1 diagonals, so every cell of the
2^k1 x 2^k2 rectangle that lands on a diagonal holds a constant and
every giant row is non-empty.  `DftPlan.diagonals(s)` merges a stage's
complex diagonals again, one period long, on each call, and only
`DftPlan.stage_constants` calls it, once per stage and variant.

A load is an expansion: a generated key keeps only b_i resident
(`ckks.EvaluationKey`), and the first rotation of a stage under a step
makes that key's a_i limbs once, in a dict made when the stage begins;
every later rotation of the stage, fix-up included, runs inside it and
uses that copy, and the dict is dropped when the next stage begins.
`EvkUsageLog` logs that first rotation as the load, and `hdft_pass_cost`
counts one per distinct nonzero step, so a stage loads, in the log and
the model, the keys it expands: at most two, alive at a time, for min-KS.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .ckks import (Ciphertext, CkksParams, EvaluationKey, Plaintext,
                   SecretKey, basis_c, decode, decrypt, encode,
                   encode_diagonal_batch, encrypt, hadd, hrescale, hrot,
                   mod_up, modulus_chain, slots_to_coeffs)
from .costmodel import VARIANTS, PassShape
from .embedding import stage_twiddles
from .errors import (ConfigurationError, MissingKeyError, ScaleMismatchError,
                     SeedRangeError)
from .rnspoly import RnsPolynomial, lift_int_coeffs, rp_mul_sum

DFT = "dft"       # coefficients to slot values
IDFT = "idft"     # slot values back to coefficients


def _lroll(v: np.ndarray, r: int) -> np.ndarray:
    """Left cyclic shift: out[j] = v[(j + r) mod n]."""
    return np.roll(v, -r, axis=-1)


# ---------------------------------------------------------------------------
# Sparse-diagonal matrix algebra (numeric; builds and checks plans).

def diag_apply(diags: dict[int, np.ndarray], v: np.ndarray) -> np.ndarray:
    """The matrix with these diagonals times the rows of v.  A diagonal may
    be one period of itself, of any length that divides n."""
    v = np.asarray(v)
    n = v.shape[-1]
    out = np.zeros(v.shape, dtype=np.complex128)
    for d, vec in diags.items():
        view = out.reshape(out.shape[:-1] + (-1, len(vec)))
        view += vec * _lroll(v, d % n).reshape(view.shape)
    return out


def diag_product(a: dict[int, np.ndarray],
                 b: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Diagonals of A @ B.  Offsets add without modular folding, so a merged
    stage keeps one entry per structural diagonal even when two coincide
    modulo n."""
    out: dict[int, np.ndarray] = {}
    for d1, v1 in a.items():
        for d2, v2 in b.items():
            term = v1 * _lroll(v2, d1)
            d = d1 + d2
            if d in out:
                out[d] = out[d] + term
            else:
                out[d] = term
    return out


def radix2_factor(n: int, length: int, inverse: bool) -> dict[int, np.ndarray]:
    """One butterfly factor (or its inverse) as diagonals {0, h, -h}."""
    h = length // 2
    w = stage_twiddles(n, length)
    pos = np.arange(n) % length
    top = pos < h
    pair = np.where(top, pos, pos - h)
    if not inverse:
        d0 = np.where(top, 1.0 + 0j, -w[pair])
        dp = np.where(top, w[pair], 0)
        dm = np.where(top, 0, 1.0 + 0j)
    else:
        winv = 0.5 / w
        d0 = np.where(top, 0.5 + 0j, -winv[pair])
        dp = np.where(top, 0.5 + 0j, 0)
        dm = np.where(top, 0, winv[pair])
    return {0: d0, h: dp, -h: dm}


def merge_factors(n: int, lengths: list[int],
                  inverse: bool) -> dict[int, np.ndarray]:
    """Product of butterfly factors, `lengths` in application order."""
    mat = None
    for length in lengths:
        f = radix2_factor(n, length, inverse)
        mat = f if mat is None else diag_product(f, mat)
    return mat


# ---------------------------------------------------------------------------
# Switching-key usage accounting.

class LogEntry(NamedTuple):
    transform: str   # "dft" | "idft" | caller-chosen label
    stage: int
    op: str          # "hrot" | "pmult"
    amount: int      # rotation amount as the schedule prescribes it
    evk_id: int      # step of the key consulted (0: a no-op, or a pmult)
    kind: str        # "load" | "reuse" | ""


@dataclass
class EvkUsageLog:
    """Rotation-key and constant-multiply tally across transform passes.

    Each rotation is logged as `hdft_apply` runs it: a "load" when it
    expands its step's key for the stage, a "reuse" when the stage holds
    that key already, and "" for a step-0 no-op, which loads nothing.
    Chained rotations record the cumulative amount they realize but the
    single step they consult.
    """

    entries: list[LogEntry] = field(default_factory=list)

    def note_rotation(self, transform: str, stage: int, amount: int,
                      evk_id: int, kind: str):
        self.entries.append(LogEntry(transform, stage, "hrot", amount,
                                     evk_id, kind))

    def note_pmult(self, transform: str, stage: int, count: int = 1):
        entry = LogEntry(transform, stage, "pmult", 0, 0, "")
        self.entries += [entry] * count

    def _ops(self, op: str, transform: str | None) -> list[LogEntry]:
        return [e for e in self.entries
                if e.op == op and transform in (None, e.transform)]

    def loads(self, transform: str | None = None) -> int:
        return sum(e.kind == "load" for e in self._ops("hrot", transform))

    def reuses(self, transform: str | None = None) -> int:
        return sum(e.kind == "reuse" for e in self._ops("hrot", transform))

    def loads_by_stage(self, transform: str) -> dict[int, int]:
        return dict(Counter(e.stage for e in self._ops("hrot", transform)
                            if e.kind == "load"))

    def rotation_ops(self, transform: str | None = None) -> int:
        return sum(e.evk_id != 0 for e in self._ops("hrot", transform))

    def pmult_ops(self, transform: str | None = None) -> int:
        return len(self._ops("pmult", transform))


# ---------------------------------------------------------------------------
# Seeded plaintexts: store one limb, extend on the fly.

@dataclass
class PlaintextSeed:
    """Single-limb image of an integer plaintext polynomial, stored as the
    centered representative so any working prime can rebuild its limb.

    `q0_limb` is the row of M coefficients it was made from, an element
    of Z[X^(N/M)], so M is its period.
    """

    q0_limb: np.ndarray          # int64, |c| < q0/2, M words
    scale: Fraction


def make_plaintext_seed(params: CkksParams, coeffs: np.ndarray,
                        scale: int | Fraction) -> PlaintextSeed:
    """Seed a row of M integer coefficients, read as an element of
    Z[X^(N/M)].  A row that is not one-dimensional with M a power of two
    from 2 to N is refused, and so is a zero scale, as `slots_to_coeffs`
    refuses it."""
    if scale == 0:
        raise ConfigurationError("scale must be nonzero")
    values = np.asarray(coeffs)
    m = values.shape[-1] if values.ndim == 1 else 0
    if m < 2 or m & (m - 1) or m > params.n_ring:
        raise ConfigurationError(
            f"a seed row is one power-of-two length from 2 to "
            f"{params.n_ring}, not {values.shape}")
    q0 = modulus_chain(params)[0].q
    if values.dtype.kind == "c":
        if np.any(values.imag != 0):
            raise SeedRangeError("seed coefficients must be real")
        values = values.real
    if values.dtype.kind == "f" and not np.all(
            np.isfinite(values) & (values == np.rint(values))):
        raise SeedRangeError("seed coefficients must be finite integers")
    # Compared before the cast, which would wrap a word past int64.  An
    # integer or object row compares with the Python int exactly; a float
    # row with the bound rounded to float64, which may refuse the one word
    # that rounding put below the bound but never admits a word past it.
    bound = (q0 + 1) // 2
    if np.any(values >= bound) or np.any(values <= -bound):
        raise SeedRangeError(
            f"coefficients reach +-{q0 // 2}; one limb cannot carry them")
    return PlaintextSeed(q0_limb=values.astype(np.int64),
                         scale=Fraction(scale))


def of_limb_extend(params: CkksParams, seeds: dict, level: int) -> dict:
    """Rebuild working-basis plaintexts from their seed limbs.

    The seeds stack at the length M of the longest one: a shorter seed of
    M' words is the same element of Z[X^(N/M)] with its words at stride
    M/M' of a zeroed row, and one lift widens the (R, M) stack.  The
    plaintexts, keyed as `seeds` is, each of M/2 slots, are views of the
    lifted (L, R, M) stack, one period per limb; `hdft_apply` widens one
    giant row per call and releases the row together once its pmults are
    done.
    """
    if not seeds:
        return {}
    width = max(len(seed.q0_limb) for seed in seeds.values())
    coeffs = np.zeros((len(seeds), width), dtype=np.int64)
    for row, seed in zip(coeffs, seeds.values()):
        row[::width // len(seed.q0_limb)] = seed.q0_limb
    basis = basis_c(params, level)
    stack = lift_int_coeffs(coeffs, basis)
    return {key: Plaintext(poly=RnsPolynomial(basis, stack[:, r]),
                           scale=seed.scale, slots=width // 2)
            for r, (key, seed) in enumerate(seeds.items())}


def _seed_batch(params: CkksParams, rows: np.ndarray,
                scale: int) -> list[PlaintextSeed]:
    """Seeds for a batch of constant rows, shaped (R, m), at one scale."""
    return [make_plaintext_seed(params, c, scale)
            for c in slots_to_coeffs(rows, scale)]


# ---------------------------------------------------------------------------
# Plans.

@dataclass(frozen=True)
class DftPlan(PassShape):
    """A transform schedule: the `PassShape` the cost model prices (its
    direction, size n, k, split and one level per stage), plus the
    parameters its constants are built for, once per variant."""

    params: CkksParams
    _consts: dict = field(default_factory=dict, repr=False, compare=False)

    def diagonals(self, s: int) -> tuple[np.ndarray, ...]:
        """Stage s's diagonals, merged again on each call from butterflies
        of lengths 2g, ..., 2^k * g (reversed for an IDFT), g = `stride(s)`,
        at their period 2^k * g (module docstring): a few milliseconds at
        full width.  Diagonal i * g sits at index i + 2^k - 1."""
        g = self.stride(s)
        lengths = [g << (a + 1) for a in range(self.k)]
        if self.direction == IDFT:
            lengths.reverse()
        merged = merge_factors(g << self.k, lengths, self.direction == IDFT)
        bound = (1 << self.k) - 1
        return tuple(merged[i * g] for i in range(-bound, bound + 1))

    @property
    def const_scale(self) -> int:
        """IDFT constants take a scale well above the nominal one: the
        transform runs on raised values carrying base-modulus multiples, so
        constant quantization must sit far below the message precision.  The
        exact scale field on the ciphertext absorbs the per-stage drift."""
        if self.direction == IDFT:
            return 1 << (self.params.q0_bits - 4)
        return self.params.scale

    def stage_constants(self, variant: str):
        """Per-stage BSGS constants, encoded (or seeded) lazily and cached.

        The rectangle index i1 + 2^k1 * i2 addresses diagonal i = index - 2^k
        for the baseline (whose pre-rotation shifts by -2^k * g) and
        i = index - (2^k - 1) for the grouped variants (whose per-stage
        residual is (2^k - 1) * g); each constant is the true diagonal
        rolled by the variant's accumulated residual minus its giant-step
        twist.  Each diagonal is one 2^k * g period (`diagonals`), so
        `encode_diagonal_batch` and `_seed_batch` encode that period.
        """
        if variant in self._consts:
            return self._consts[variant]
        big = 1 << self.k1
        bound = (1 << self.k) - 1
        base = (1 << self.k) if variant == "baseline" else bound
        out = []
        for s, level in enumerate(self.levels):
            g, diags = self.stride(s), self.diagonals(s)
            residual = 0 if variant == "baseline" else self.minks_roll(s)
            rows, keys = [], []
            for i2 in range(1 << self.k2):
                for i1 in range(1 << self.k1):
                    di = i1 + big * i2 - base + bound
                    if not 0 <= di < len(diags):
                        continue
                    rows.append(_lroll(diags[di], residual - i2 * big * g))
                    keys.append((i1, i2))
            del diags       # one stage's diagonals alive at a time
            if variant == "minks-oflimb":
                # One giant row (the cells that share i2) per batch.
                entries = []
                for i2 in range(1 << self.k2):
                    entries += _seed_batch(
                        self.params,
                        np.array([row for row, (_, j2) in zip(rows, keys)
                                  if j2 == i2]),
                        self.const_scale)
            else:
                entries = encode_diagonal_batch(self.params, np.array(rows),
                                                level, scale=self.const_scale)
            out.append(dict(zip(keys, entries)))
        self._consts[variant] = out
        return out


def build_dft_plan(params: CkksParams, direction: str, size: int | None = None,
                   k: int = 6, split: tuple[int, int] = (3, 4),
                   levels=None) -> DftPlan:
    """Group the radix-2 factors of the packed embedding into BSGS stages.

    `size` is the transform length (default: all n_ring/2 slots); log2(size)
    must be a multiple of k.  `levels` lists the ciphertext level of each
    stage, consecutive and descending; the defaults start at the top for
    IDFT and end at level 1 for DFT, matching their bootstrap positions.
    That DFT rescales to level 0, so a bootstrap running it consumes every
    level, the `L_boot` of `ParamProfile.from_params` (levels a bootstrap
    consumes).  It runs one level below `costmodel.bootstrap_pass_shapes`
    (at desk with k = 6, levels (2, 1) against (3, 2)); see there for why.

    The plan is a `PassShape`, which refuses a bad direction, size, k,
    split, level count or level order; each stage is derived from that
    shape.  Only what the shape cannot see is checked here: the size
    against the ring, every level against the chain, and the split, which
    must hold before log2(size) is divided by k.
    """
    size = params.n_ring // 2 if size is None else size
    if not 2 <= size <= params.n_ring // 2:
        raise ConfigurationError(f"bad transform size {size}")
    k1, k2 = split
    if k1 + k2 != k + 1 or k1 < 1 or k2 < 1:
        raise ConfigurationError("split must satisfy k1 + k2 = k + 1")
    if levels is None:
        n_stages = (size.bit_length() - 1) // k
        start = params.levels if direction == IDFT else n_stages
        levels = range(start, start - n_stages, -1)
    levels = tuple(levels)
    if any(not 1 <= level <= params.levels for level in levels):
        raise ConfigurationError("stage levels must lie in [1, levels]")
    return DftPlan(direction, size, k, k1, k2, levels, params=params)


def roundtrip_plans(params: CkksParams, size: int, k: int,
                    split: tuple[int, int]) -> tuple[DftPlan, DftPlan]:
    """An IDFT from the top level and the DFT that starts at the level the
    IDFT returns at, so the pair runs back to back on a fresh ciphertext."""
    inv = build_dft_plan(params, IDFT, size=size, k=k, split=split)
    top = params.levels - inv.iterations
    fwd = build_dft_plan(params, DFT, size=size, k=k, split=split,
                         levels=range(top, top - inv.iterations, -1))
    return inv, fwd


# ---------------------------------------------------------------------------
# Plan execution.

def _row_sum(babies: list[Ciphertext], row: dict) -> Ciphertext:
    """One giant row's inner sum: babies[i1] times row[i1] over the row.

    One `rp_mul_sum` of the (L, 2, N) ciphertext stacks by the
    plaintexts, one reduction per word of both halves, gives the words of
    a pmult per diagonal summed by hadd.  A one-period (L, M) plaintext
    multiplies a (L, 2, N/M, M) view of the stacks, broadcast, without a
    copy.  Their checks hold: `rp_mul_sum` refuses other bases (levels),
    and every product has one scale.
    """
    pairs = [(babies[i1], pt) for i1, pt in row.items()]
    scale = pairs[0][0].scale * pairs[0][1].scale
    for ct, pt in pairs:
        if ct.scale * pt.scale != scale:
            raise ScaleMismatchError(
                f"scales differ: {ct.scale * pt.scale} vs {scale}")
    return Ciphertext(rp_mul_sum([(ct.poly, pt.poly) for ct, pt in pairs]),
                      scale, max(x.slots for pair in pairs for x in pair))


def hdft_apply(params: CkksParams, ct: Ciphertext, plan: DftPlan,
               keys: dict[int, EvaluationKey], variant: str = "minks",
               log: EvkUsageLog | None = None) -> Ciphertext:
    """Evaluate the planned transform, one stage per level, performing the
    rotations of `plan.rotations(s, variant)` at stage s."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    log = EvkUsageLog() if log is None else log
    consts = plan.stage_constants(variant)
    grouped = variant != "baseline"

    def rotate(ct: Ciphertext, stage: int, step: int,
               amount: int) -> Ciphertext:
        if step and step not in keys:
            raise MissingKeyError(f"no rotation key for step {step}")
        kind = "reuse" if step in held else "load" if step else ""
        log.note_rotation(plan.direction, stage, amount, step, kind)
        if kind == "load":          # this stage's load of the key
            held[step] = keys[step].expanded()
        return hrot(params, ct, step, held[step]) if step else ct

    for s, (cmap, level) in enumerate(zip(consts, plan.levels)):
        if ct.level != level:
            raise ConfigurationError(
                f"stage {s} expects level {level}, got {ct.level}")
        held = {}           # step -> expanded key, for this stage only
        rots = plan.rotations(s, variant)
        for step, amount in rots.before:
            ct = rotate(ct, s, step, amount)
        babies = [ct]
        for step, amount in rots.babies:
            # Chained through one key, or fanned out from the input.
            src = babies[-1] if grouped else ct
            babies.append(rotate(src, s, step, amount))
        log.note_pmult(plan.direction, s, len(cmap))
        inners = []
        for i2 in range(1 << plan.k2):
            row = {i1: pt for (i1, j2), pt in cmap.items() if j2 == i2}
            if variant == "minks-oflimb":
                row = of_limb_extend(params, row, level)
            inners.append(_row_sum(babies, row))
        # The fold reads only the inner sums.
        del babies, row
        if grouped:
            # Horner: acc <- rot(acc, G) + inner through the one key.
            acc = inners[-1]
            for inner, (step, amount) in zip(reversed(inners[:-1]),
                                             rots.giants, strict=True):
                acc = hadd(rotate(acc, s, step, amount), inner)
        else:
            acc = inners[0]
            for inner, (step, amount) in zip(inners[1:], rots.giants,
                                             strict=True):
                acc = hadd(acc, rotate(inner, s, step, amount))
        ct = hrescale(params, acc)
        for step, amount in rots.after:
            ct = rotate(ct, s, step, amount)
    return ct


# ---------------------------------------------------------------------------
# Bootstrap pipeline.

def mod_raise(params: CkksParams, ct: Ciphertext,
              level: int | None = None) -> Ciphertext:
    """Re-express the bottom-level ciphertext over the level-L basis.

    The lift is plain: viewed over the larger modulus, the underlying
    plaintext gains q0 times a small integer polynomial that a later
    slot-wise reduction must remove.  It is key switching's ModUp
    (`ckks.mod_up`) of one one-prime piece: the (1, 2, N) q0 stack of c0
    and c1 keeps its rows and goes through one `convert_limbs` into the
    other primes, where the centered conversion is the centered lift.
    """
    if ct.poly.basis != basis_c(params, 0):
        raise ConfigurationError("mod raise expects a level-0 ciphertext")
    level = params.levels if level is None else level
    if level <= 0:
        raise ConfigurationError("mod raise must increase the level")
    target = basis_c(params, level)
    raised = mod_up(ct.poly.limbs, target, 1)[:, 0]
    return Ciphertext(RnsPolynomial(target, raised), ct.scale, ct.slots)


def slotwise_mod_reference(params: CkksParams, ct: Ciphertext, sk: SecretKey,
                           rng: np.random.Generator, raise_scale: Fraction,
                           out_level: int) -> Ciphertext:
    """Ideal slot-wise centered reduction modulo the base prime.

    Decrypts, reduces the real and imaginary slot parts (read in coefficient
    units) to centered residues mod q0, and re-encrypts fresh.  Stands in
    for a polynomial-approximation stage so the transform plans can be
    validated end to end without its extra depth; not cryptographic.
    """
    q0 = modulus_chain(params)[0].q
    w = decode(params, decrypt(params, ct, sk))
    x = w * float(raise_scale)
    xr = x.real - q0 * np.rint(x.real / q0)
    xi = x.imag - q0 * np.rint(x.imag / q0)
    vals = (xr + 1j * xi) / float(raise_scale)
    return encrypt(params, encode(params, vals, level=out_level), sk, rng)


def bootstrap(params: CkksParams, ct: Ciphertext, sk: SecretKey,
              keys: dict[int, EvaluationKey], rng: np.random.Generator,
              plans: tuple[DftPlan, DftPlan], variant: str = "minks",
              log: EvkUsageLog | None = None) -> Ciphertext:
    """Raise a bottom-level ciphertext back to a usable level.

    Runs: plain modulus raise, slot-to-coefficient transform (IDFT), ideal
    slot-wise reduction, coefficient-to-slot transform (DFT).  Both
    transforms read coefficients in the same bit-reversed order, so the
    pair composes to the identity on slot values and the output decodes to
    the input message.  `plans` is an (IDFT, DFT) pair from
    `build_dft_plan`, and both must be full-width: the modulus-raise
    residue is not periodic across slot blocks, so a shorter pair cannot
    recover the message and is refused.
    """
    inv_plan, fwd_plan = plans
    if inv_plan.direction != IDFT or fwd_plan.direction != DFT:
        raise ConfigurationError("plans must be (idft, dft)")
    if {inv_plan.size, fwd_plan.size} != {params.n_ring // 2}:
        raise ConfigurationError(
            f"bootstrap plans must have size {params.n_ring // 2}, not "
            f"({inv_plan.size}, {fwd_plan.size})")
    orig_slots = ct.slots
    raise_scale = ct.scale
    raised = mod_raise(params, ct, inv_plan.levels[0])
    raised.slots = params.n_ring // 2
    mid = hdft_apply(params, raised, inv_plan, keys, variant, log)
    fresh = slotwise_mod_reference(params, mid, sk, rng, raise_scale,
                                   fwd_plan.levels[0])
    out = hdft_apply(params, fresh, fwd_plan, keys, variant, log)
    out.slots = orig_slots
    return out
