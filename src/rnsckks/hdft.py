"""FFT-like homomorphic transforms and the bootstrap pipeline around them.

The packed embedding factors into log2(n) radix-2 butterflies; merging k
adjacent butterflies gives a stage matrix with 2^(k+1) - 1 diagonals at
offsets i * g for |i| < 2^k, where g is the stage's unit stride.  A plan
evaluates one stage per level as a baby-step/giant-step sum of rotated,
constant-multiplied copies of the ciphertext, then rescales.

Two execution styles share a plan:

  baseline      one pre-rotation by -2^k * g followed by a 2^k1 x 2^k2
                rectangle of rotations; every prescribed rotation amount has
                its own switching key, so an iteration loads
                2^k1 + 2^k2 - 1 keys.  Amounts are taken verbatim from the
                schedule; an amount that reduces to zero modulo the slot
                count leaves the ciphertext unchanged but still counts as a
                key load, matching the accounting this variant models.
  minks         baby rotations chain one stride-g key and the giant sum
                folds Horner-style through one stride-G key (G = 2^k1 * g),
                so an iteration loads exactly two keys.  Dropping the
                pre-rotation leaves each stage's output rotated by
                (2^k - 1) * g; the shift is absorbed into the next stage's
                constants (a cyclic roll of the diagonal vectors), and the
                accumulated total, always -1 mod n, is repaired by a single
                stride-1 rotation whose key the plan already holds.
  minks-oflimb  minks with plan constants stored as single-limb seeds and
                extended to the working basis on the fly, one giant row
                (the cells that share i2) right before that row's pmults,
                so at most 2^k1 widened plaintexts are alive at a time;
                the extension is bit-identical to full precomputation
                whenever the coefficients fit the seed prime.

Every rotation of a pass is one logged step under a key id: it records
the amount the schedule prescribes and the id, then rotates by
step = id mod size under the key held for that step (none for a step of
0, which leaves the ciphertext as it is).  The baseline's ids are its
scheduled amounts, so a scheduled no-op still counts as a key load; the
minks baby chain and giant fold each use their one stride as the id, and
each fix-up rotation uses id 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .ckks import (Ciphertext, CkksParams, EvaluationKey, Plaintext,
                   SecretKey, basis_c, decode, decrypt, encode,
                   encode_diagonal_batch, encrypt, hadd, hrescale, hrot,
                   modulus_chain, pmult, slots_to_coeffs)
from .costmodel import VARIANTS
from .embedding import stage_twiddles
from .errors import ConfigurationError, MissingKeyError, SeedRangeError
from .modmath import U64
from .rnspoly import (EVAL, LimbBasis, RnsPolynomial, lift_int_coeffs,
                      poly_from_int_coeffs, transform_limbs)

DFT = "dft"       # coefficients to slot values
IDFT = "idft"     # slot values back to coefficients


def _lroll(v: np.ndarray, r: int) -> np.ndarray:
    """Left cyclic shift: out[j] = v[(j + r) mod n]."""
    return np.roll(v, -r, axis=-1)


# ---------------------------------------------------------------------------
# Sparse-diagonal matrix algebra (numeric; builds and checks plans).

def diag_apply(diags: dict[int, np.ndarray], v: np.ndarray) -> np.ndarray:
    n = np.asarray(v).shape[-1]
    out = np.zeros(np.asarray(v).shape, dtype=np.complex128)
    for d, vec in diags.items():
        out += vec * _lroll(v, d % n)
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
    evk_id: int      # stride of the key consulted (0 for pmult)
    kind: str        # "load" | "reuse" | ""
    performed: bool  # False when the amount reduced to a no-op


@dataclass
class EvkUsageLog:
    """Rotation-key and constant-multiply tally across transform passes.

    A key id counts as a load on its first use within a stage (one
    iteration's working set) and as a reuse afterwards.  Chained rotations
    record the cumulative amount they realize but the single key id they
    consult.
    """

    entries: list[LogEntry] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)

    def note_rotation(self, transform: str, stage: int, amount: int,
                      evk_id: int, performed: bool = True):
        key = (transform, stage, evk_id)
        kind = "reuse" if key in self._seen else "load"
        self._seen.add(key)
        self.entries.append(LogEntry(transform, stage, "hrot", amount,
                                     evk_id, kind, performed))

    def note_pmult(self, transform: str, stage: int, count: int = 1):
        for _ in range(count):
            self.entries.append(LogEntry(transform, stage, "pmult",
                                         0, 0, "", True))

    def loads(self, transform: str | None = None) -> int:
        return sum(1 for e in self.entries if e.op == "hrot"
                   and e.kind == "load" and transform in (None, e.transform))

    def reuses(self, transform: str | None = None) -> int:
        return sum(1 for e in self.entries if e.op == "hrot"
                   and e.kind == "reuse" and transform in (None, e.transform))

    def loads_by_stage(self, transform: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            if e.transform == transform and e.op == "hrot" \
                    and e.kind == "load":
                out[e.stage] = out.get(e.stage, 0) + 1
        return out

    def rotation_ops(self, transform: str | None = None) -> int:
        return sum(1 for e in self.entries if e.op == "hrot" and e.performed
                   and transform in (None, e.transform))

    def pmult_ops(self, transform: str | None = None) -> int:
        return sum(1 for e in self.entries if e.op == "pmult"
                   and transform in (None, e.transform))


# ---------------------------------------------------------------------------
# Seeded plaintexts: store one limb, extend on the fly.

@dataclass
class PlaintextSeed:
    """Single-limb image of an integer plaintext polynomial, stored as the
    centered representative so any working prime can rebuild its limb."""

    q0_limb: np.ndarray          # int64, |c| < q0/2
    scale: Fraction
    tag: str = ""


def make_plaintext_seed(params: CkksParams, coeffs: np.ndarray,
                        scale: int | Fraction,
                        tag: str = "") -> PlaintextSeed:
    q0 = modulus_chain(params)[0].q
    values = np.asarray(coeffs)
    if values.dtype.kind in "fc" and not np.all(
            np.isfinite(values) & (values == np.rint(values))):
        raise SeedRangeError("seed coefficients must be finite integers")
    coeffs = values.astype(np.int64)
    bound = (q0 + 1) // 2
    if np.any(coeffs >= bound) or np.any(coeffs <= -bound):
        raise SeedRangeError(
            f"coefficients reach +-{q0 // 2}; one limb cannot carry them")
    return PlaintextSeed(q0_limb=coeffs, scale=Fraction(scale), tag=tag)


def of_limb_extend(params: CkksParams, seed: PlaintextSeed,
                   level: int) -> Plaintext:
    """Rebuild the full working-basis plaintext from its seed limb."""
    poly = poly_from_int_coeffs(seed.q0_limb, basis_c(params, level),
                                rep=EVAL)
    return Plaintext(poly=poly, scale=seed.scale, level=level,
                     slots=params.n_ring // 2)


def _seed_batch(params: CkksParams, rows: np.ndarray, scale: int,
                tag: str, start: int) -> list[PlaintextSeed]:
    """Seeds for consecutive rows of a stage, tagged by their stage-wide
    row index, which starts at `start`."""
    return [make_plaintext_seed(params, c, scale, tag=f"{tag}:{start + r}")
            for r, c in enumerate(slots_to_coeffs(rows, scale))]


def _extend_stage_seeds(params: CkksParams, seeds: dict, level: int) -> dict:
    """Batched seed extension for one giant row of a stage's constants:
    its plaintexts are views of one lifted (L, R, N) stack, released
    together once the row's pmults are done."""
    keys = list(seeds)
    basis = basis_c(params, level)
    stacks = lift_int_coeffs(np.stack([seeds[kk].q0_limb for kk in keys]),
                             basis)
    return {kk: Plaintext(poly=RnsPolynomial(basis, EVAL, stacks[:, r]),
                          scale=seeds[kk].scale, level=level,
                          slots=params.n_ring // 2)
            for r, kk in enumerate(keys)}


# ---------------------------------------------------------------------------
# Plans.

@dataclass
class PlanStage:
    g: int                          # unit stride; diagonals sit at i * g
    level: int                      # ciphertext level this stage runs at
    diags: list                     # index i + 2^k - 1; None marks a zero
    minks_roll: int                 # outgoing residual folded into constants
    center_only: bool = False       # single central diagonal, no rotations


@dataclass
class DftPlan:
    params: CkksParams
    direction: str                  # DFT or IDFT
    size: int                       # transform length n (a power of two)
    k: int
    k1: int
    k2: int
    incoming_residual: int
    const_scale: int
    stages: list[PlanStage]
    _consts: dict = field(default_factory=dict, repr=False)

    @property
    def iterations(self) -> int:
        return len(self.stages)

    def required_steps(self, variant: str) -> list[int]:
        """Physical rotation strides whose keys the variant consults."""
        steps: set[int] = set()
        big = 1 << self.k1
        for st in self.stages:
            if st.center_only:
                continue
            if variant == "baseline":
                steps.add((-(1 << self.k) * st.g) % self.size)
                steps.update((i1 * st.g) % self.size
                             for i1 in range(1, 1 << self.k1))
                steps.update((i2 * big * st.g) % self.size
                             for i2 in range(1, 1 << self.k2))
            else:
                steps.add(st.g % self.size)
                steps.add((big * st.g) % self.size)
        if variant != "baseline" and self.stages:
            steps.add(1)
        return sorted(s for s in steps if s)

    def stage_constants(self, variant: str):
        """Per-stage BSGS constants, encoded (or seeded) lazily and cached.

        The rectangle index i1 + 2^k1 * i2 addresses diagonal i = index - 2^k
        for the baseline (whose pre-rotation shifts by -2^k * g) and
        i = index - (2^k - 1) for the grouped variants (whose per-stage
        residual is (2^k - 1) * g); each constant is the true diagonal
        rolled by the variant's accumulated residual minus its giant-step
        twist.
        """
        if variant in self._consts:
            return self._consts[variant]
        reps = (self.params.n_ring // 2) // self.size
        big = 1 << self.k1
        bound = (1 << self.k) - 1
        base = (1 << self.k) if variant == "baseline" else bound
        out = []
        for s, st in enumerate(self.stages):
            rows, keys = [], []
            if st.center_only:
                roll = 0 if variant == "baseline" else st.minks_roll
                rows.append(np.tile(_lroll(st.diags[bound], roll), reps))
                keys.append((0, 0))
            else:
                for i2 in range(1 << self.k2):
                    for i1 in range(1 << self.k1):
                        di = i1 + big * i2 - base + bound
                        if not 0 <= di < len(st.diags) \
                                or st.diags[di] is None:
                            continue
                        roll = -i2 * big * st.g
                        if variant != "baseline":
                            roll += st.minks_roll
                        rows.append(np.tile(
                            _lroll(st.diags[di], roll % self.size), reps))
                        keys.append((i1, i2))
            if variant == "minks-oflimb":
                # One giant row (the cells that share i2) per batch.
                entries = []
                for i2 in range(1 << self.k2):
                    idx = [r for r, key in enumerate(keys) if key[1] == i2]
                    if idx:
                        entries += _seed_batch(
                            self.params, np.array([rows[r] for r in idx]),
                            self.const_scale, f"{self.direction}:{s}",
                            idx[0])
            else:
                entries = encode_diagonal_batch(self.params, np.array(rows),
                                                st.level,
                                                scale=self.const_scale)
            out.append(dict(zip(keys, entries)))
        self._consts[variant] = out
        return out


def build_dft_plan(params: CkksParams, direction: str, size: int | None = None,
                   k: int = 6, split: tuple[int, int] = (3, 4),
                   levels=None, incoming_residual: int = 0,
                   const_scale: int | None = None) -> DftPlan:
    """Group the radix-2 factors of the packed embedding into BSGS stages.

    `size` is the transform length (default: all n_ring/2 slots); log2(size)
    must be a multiple of k.  `levels` lists the ciphertext level of each
    stage, consecutive and descending; the defaults start at the top for
    IDFT and end at level 1 for DFT, matching their bootstrap positions.

    IDFT constants default to a scale well above the nominal one: the
    transform runs on raised values carrying base-modulus multiples, so
    constant quantization must sit far below the message precision.  The
    exact scale field on the ciphertext absorbs the per-stage drift.
    """
    size = params.n_ring // 2 if size is None else size
    logn = size.bit_length() - 1
    if size < 2 or (1 << logn) != size or size > params.n_ring // 2:
        raise ConfigurationError(f"bad transform size {size}")
    if direction not in (DFT, IDFT):
        raise ConfigurationError(f"bad direction {direction!r}")
    if logn % k:
        raise ConfigurationError(f"radix 2^{k} does not tile log2({size})")
    k1, k2 = split
    if k1 + k2 != k + 1 or k1 < 1 or k2 < 1:
        raise ConfigurationError("split must satisfy k1 + k2 = k + 1")
    n_stages = logn // k
    if const_scale is None:
        const_scale = (1 << (params.q0_bits - 4)) if direction == IDFT \
            else params.scale
    if levels is None:
        start = params.levels if direction == IDFT else n_stages
        levels = list(range(start, start - n_stages, -1))
    levels = list(levels)
    if len(levels) != n_stages or levels[-1] < 1 or levels[0] > params.levels:
        raise ConfigurationError("one in-range level per stage required")
    if any(a - b != 1 for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("stage levels must descend by one")

    bound = (1 << k) - 1
    residual = incoming_residual + (1 if direction == DFT else 0)
    stages = []
    for s in range(n_stages):
        if direction == DFT:
            lengths = [1 << (s * k + a + 1) for a in range(k)]
            g = 1 << (s * k)
        else:
            lengths = [size >> (s * k + a) for a in range(k)]
            g = size >> ((s + 1) * k)
        merged = merge_factors(size, lengths, inverse=(direction == IDFT))
        if any(d % g for d in merged):
            raise ConfigurationError("merged offsets off the stage stride")
        diags = [merged.get((di - bound) * g) for di in range(2 * bound + 1)]
        residual += bound * g
        stages.append(PlanStage(g=g, level=levels[s], diags=diags,
                                minks_roll=residual % size))
    return DftPlan(params=params, direction=direction, size=size, k=k,
                   k1=k1, k2=k2, incoming_residual=incoming_residual,
                   const_scale=const_scale, stages=stages)


# ---------------------------------------------------------------------------
# Plan execution.

def _row_sum(babies: list[Ciphertext], row: dict) -> Ciphertext | None:
    """One giant row's inner sum: babies[i1] times row[i1], in i1 order."""
    inner = None
    for i1, pt in row.items():
        term = pmult(babies[i1], pt)
        inner = term if inner is None else hadd(inner, term)
    return inner


def hdft_apply(params: CkksParams, ct: Ciphertext, plan: DftPlan,
               keys: dict[int, EvaluationKey], variant: str = "minks",
               log: EvkUsageLog | None = None) -> Ciphertext:
    """Evaluate the planned transform, one stage per level."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    log = EvkUsageLog() if log is None else log
    label = plan.direction
    consts = plan.stage_constants(variant)
    big = 1 << plan.k1
    grouped = variant != "baseline"

    def rotate(ct: Ciphertext, stage: int, evk_id: int,
               amount: int) -> Ciphertext:
        step = evk_id % plan.size
        log.note_rotation(label, stage, amount, evk_id, performed=step != 0)
        if step == 0:
            return ct
        if step not in keys:
            raise MissingKeyError(f"no rotation key for step {step}")
        return hrot(params, ct, step, keys[step])

    if grouped and plan.direction == DFT and not plan.stages[0].center_only:
        # Entry fix-up: +1 makes the stage residuals sum to a full cycle.
        # The stride-1 key is stage 0's own baby key.
        ct = rotate(ct, 0, 1, 1)

    for s, st in enumerate(plan.stages):
        if ct.level != st.level:
            raise ConfigurationError(
                f"stage {s} expects level {st.level}, got {ct.level}")
        cmap = consts[s]
        babies = [ct]
        if not st.center_only:
            if not grouped:
                pre = -(1 << plan.k) * st.g
                babies = [rotate(ct, s, pre, pre)]
            for i1 in range(1, big):
                if grouped:     # chained through the one stride-g key
                    babies.append(rotate(babies[-1], s, st.g, i1 * st.g))
                else:
                    babies.append(rotate(babies[0], s, i1 * st.g, i1 * st.g))
        log.note_pmult(label, s, len(cmap))
        inners = []
        for i2 in range(1 << plan.k2):
            row = {i1: cmap[i1, i2] for i1 in range(big) if (i1, i2) in cmap}
            if variant == "minks-oflimb" and row:
                row = _extend_stage_seeds(params, row, st.level)
            inners.append(_row_sum(babies, row))
        # The fold reads only the inner sums.
        del babies, row
        if grouped:
            # Horner: acc <- rot(acc, G) + inner through the one stride-G
            # key; an empty row adds nothing but still advances the fold.
            gee = (big * st.g) % plan.size
            acc = inners[-1]
            for inner in reversed(inners[:-1]):
                if acc is not None:
                    acc = rotate(acc, s, gee, gee)
                if inner is not None:
                    acc = inner if acc is None else hadd(acc, inner)
        else:
            acc = None
            for i2, inner in enumerate(inners):
                if inner is None:
                    continue
                if i2:
                    inner = rotate(inner, s, i2 * big * st.g,
                                   i2 * big * st.g)
                acc = inner if acc is None else hadd(acc, inner)
        ct = hrescale(params, acc)

    if grouped and plan.direction == IDFT \
            and not plan.stages[-1].center_only:
        # Exit fix-up; the stride-1 key is the last stage's own baby key.
        ct = rotate(ct, len(plan.stages) - 1, 1, 1)
    return ct


# ---------------------------------------------------------------------------
# Bootstrap pipeline.

def mod_raise(params: CkksParams, ct: Ciphertext,
              level: int | None = None) -> Ciphertext:
    """Re-express the bottom-level ciphertext over the level-L basis.

    The lift is plain: viewed over the larger modulus, the underlying
    plaintext gains q0 times a small integer polynomial that a later
    slot-wise reduction must remove.  The q0 limbs of c0 and c1 are
    inverse-transformed together, centered, and lifted into the other
    primes; the q0 limbs themselves are kept as they are.
    """
    if ct.level != 0:
        raise ConfigurationError("mod raise expects a level-0 ciphertext")
    level = params.levels if level is None else level
    if level <= 0:
        raise ConfigurationError("mod raise must increase the level")
    target = basis_c(params, level)
    q0 = target.primes[0].q
    limbs = np.empty((len(target), 2, params.n_ring), dtype=U64)
    limbs[:1] = np.stack([ct.c0.to_eval().limbs, ct.c1.to_eval().limbs],
                         axis=1)
    low = transform_limbs(limbs[:1], ct.c0.basis, "inverse")[0]
    centered = low.view(np.int64) - (low > U64(q0 // 2)) * np.int64(q0)
    limbs[1:] = lift_int_coeffs(centered, LimbBasis(target.primes[1:]))
    return Ciphertext(RnsPolynomial(target, EVAL, limbs[:, 0]),
                      RnsPolynomial(target, EVAL, limbs[:, 1]), ct.scale,
                      level, ct.slots)


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
              plans: tuple[DftPlan, DftPlan] | None = None,
              variant: str = "minks", k: int = 6,
              split: tuple[int, int] = (3, 4),
              log: EvkUsageLog | None = None) -> Ciphertext:
    """Raise a bottom-level ciphertext back to a usable level.

    Runs: plain modulus raise, slot-to-coefficient transform (IDFT), ideal
    slot-wise reduction, coefficient-to-slot transform (DFT).  Both
    transforms read coefficients in the same bit-reversed order, so the
    pair composes to the identity on slot values and the output decodes to
    the input message.
    """
    if plans is None:
        plans = (build_dft_plan(params, IDFT, k=k, split=split),
                 build_dft_plan(params, DFT, k=k, split=split))
    inv_plan, fwd_plan = plans
    if inv_plan.direction != IDFT or fwd_plan.direction != DFT:
        raise ConfigurationError("plans must be (idft, dft)")
    orig_slots = ct.slots
    raise_scale = ct.scale
    raised = mod_raise(params, ct, inv_plan.stages[0].level)
    raised.slots = params.n_ring // 2
    mid = hdft_apply(params, raised, inv_plan, keys, variant, log)
    fresh = slotwise_mod_reference(params, mid, sk, rng, raise_scale,
                                   fwd_plan.stages[0].level)
    out = hdft_apply(params, fresh, fwd_plan, keys, variant, log)
    out.slots = orig_slots
    return out
