"""Analytical cost model for RNS-CKKS key-switching workloads.

Everything in this module is closed-form arithmetic over parameter
profiles and pass schedules (`PassShape.rotations`, the rotations that
`hdft.hdft_apply` runs); no ciphertext is touched.  The unit of compute
is one modular multiplication (modular additions and reductions ride
along for free) and the unit of traffic is one off-chip byte;
arithmetic intensity is the quotient of the two.

The traffic model for homomorphic (I)DFT passes assumes a device whose
on-chip memory holds the working ciphertext and rotation state, so
off-chip traffic consists of switching keys and plaintext constants
only.  Keys and plaintexts are sized at the working level: a rotation
key consulted at level l contributes dnum_l * 2 * (alpha + l + 1) * N
words, where dnum_l = ceil((l + 1) / alpha) is the number of gadget
pieces that carry data at that level, and a full plaintext contributes
(l + 1) * N words.  The on-the-fly extension variant loads one word per
coefficient instead, cutting plaintext traffic by a factor of l + 1 at
the price of the forward transforms that rebuild the missing limbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .ckks import CkksParams
from .errors import ConfigurationError

VARIANTS = ("baseline", "minks", "minks-oflimb")

POLICY_ALTERNATING = "alternating"
POLICY_LIMB_WISE = "limb_wise_only"


# ---------------------------------------------------------------------------
# Profiles.

@dataclass(frozen=True)
class ParamProfile:
    """Scheme shape of one published or local configuration.

    `L_boot` is the number of levels a bootstrap consumes, or None for
    configurations that never bootstrap packed data; a bootstrapped
    ciphertext is left L - L_boot levels.  `n` is the slot count the
    configuration refreshes at a time.  alpha divides L + 1, the digit
    rule `CkksParams` owns, so `dnum` = (L + 1) / alpha is `CkksParams.dnum`.
    """

    name: str
    N: int
    L: int
    alpha: int
    n: int
    L_boot: int | None = None
    word_bytes: int = 8

    def __post_init__(self):
        if self.N < 2 or self.N & (self.N - 1):
            raise ConfigurationError("N must be a power of two")
        if self.alpha < 1 or (self.L + 1) % self.alpha:
            raise ConfigurationError("alpha must divide L + 1")
        if not 1 <= self.n <= self.N // 2:
            raise ConfigurationError("slot count out of range")
        if self.word_bytes <= 0:
            raise ConfigurationError("word_bytes must be positive")
        if self.L_boot is not None and not 0 <= self.L_boot <= self.L:
            raise ConfigurationError("L_boot out of range")

    @classmethod
    def from_params(cls, params: CkksParams) -> "ParamProfile":
        """The desk profile of a parameter set; every profile built from
        parameters comes from here.

        A desk bootstrap consumes every level: `hdft.build_dft_plan`'s
        default DFT ends at level 1 and rescales to 0, so `L_boot` is
        `params.levels`.
        """
        return cls("desk", N=params.n_ring, L=params.levels,
                   alpha=params.alpha, n=params.n_slots,
                   L_boot=params.levels)

    @property
    def dnum(self) -> int:
        return (self.L + 1) // self.alpha

    def dnum_at(self, level: int) -> int:
        if not 0 <= level <= self.L:
            raise ConfigurationError(f"level {level} out of range")
        return -(-(level + 1) // self.alpha)


@dataclass(frozen=True)
class MachineProfile:
    """Accelerator envelope: multipliers, clock, and memory system."""

    name: str
    modular_multiplier_count: int
    clock_hz: float
    offchip_bandwidth_bytes_per_s: float

    def __post_init__(self):
        for fname in ("modular_multiplier_count", "clock_hz",
                      "offchip_bandwidth_bytes_per_s"):
            if getattr(self, fname) <= 0:
                raise ConfigurationError(f"{fname} must be positive")


PROFILES = {
    "desk": ParamProfile.from_params(CkksParams()),
    "lattigo": ParamProfile("lattigo", N=1 << 16, L=24, alpha=5,
                            n=1 << 15, L_boot=15),
    "100x": ParamProfile("100x", N=1 << 17, L=29, alpha=10,
                         n=1 << 16, L_boot=19),
    "f1": ParamProfile("f1", N=1 << 14, L=15, alpha=1,
                       n=1, L_boot=None, word_bytes=4),
    "ark": ParamProfile("ark", N=1 << 16, L=23, alpha=6,
                        n=1 << 15, L_boot=15),
}

# A dense-multiplier design scaled up to bootstrappable ring sizes,
# used as the reference point for utilization bounds.
SCALED_F1 = MachineProfile("scaled-f1",
                           modular_multiplier_count=40960,
                           clock_hz=1e9,
                           offchip_bandwidth_bytes_per_s=3e12)


# ---------------------------------------------------------------------------
# Static data sizes.

class DataSizes(NamedTuple):
    plaintext_bytes: int
    ciphertext_bytes: int
    evk_bytes: int


def data_sizes(p: ParamProfile) -> DataSizes:
    """Full-level object sizes: plaintext, ciphertext, switching key."""
    pt = plaintext_bytes_at(p, p.L)
    return DataSizes(pt, 2 * pt, evk_bytes_at(p, p.L))


def evk_bytes_at(p: ParamProfile, level: int) -> int:
    """Bytes of one switching key consulted at the given level."""
    d = p.dnum_at(level)
    return d * 2 * (p.alpha + level + 1) * p.N * p.word_bytes


def plaintext_bytes_at(p: ParamProfile, level: int) -> int:
    return (level + 1) * p.N * p.word_bytes


# ---------------------------------------------------------------------------
# Key-switching compute.

class KeySwitchMults(NamedTuple):
    """Modular-mult count of one key-switching, split by kernel."""
    ntt: int
    bconv: int
    elementwise: int

    @property
    def total(self) -> int:
        return self.ntt + self.bconv + self.elementwise

    @property
    def ntt_share(self) -> float:
        return self.ntt / self.total

    @property
    def bconv_share(self) -> float:
        return self.bconv / self.total


def _butterflies(N: int) -> int:
    # One limb transform, counting butterfly mults only.
    return (N // 2) * N.bit_length() - (N // 2)


def keyswitch_mults(p: ParamProfile, level: int) -> KeySwitchMults:
    """Closed-form mult count of one key-switching at a working level.

    ModUp (`ckks.mod_up`) takes each of the dnum_l input pieces to
    coefficient form on its own alpha limbs and re-extends it over the
    remaining level + 1 limbs; ModDown (`ckks.mod_down`) runs the same
    routine on the two output polynomials to shed the auxiliary limbs.
    Of ntt, (dnum_l + 2) * (alpha + level + 1) limb transforms, and of
    bconv, where each conversion scales its alpha source limbs and feeds
    an alpha by (level + 1) accumulation per coefficient, dnum_l parts
    are ModUp's and two ModDown's.  elementwise is the key product
    (`ckks.key_product`) plus ModDown's per-limb scaling of both outputs.
    """
    d = p.dnum_at(level)
    limbs = p.alpha + level + 1
    ntt = (d + 2) * limbs * _butterflies(p.N)
    bconv = (d + 2) * p.alpha * (level + 2) * p.N
    elementwise = 2 * d * limbs * p.N + 2 * (level + 1) * p.N
    return KeySwitchMults(ntt, bconv, elementwise)


def pmult_mults(p: ParamProfile, level: int) -> int:
    # Plaintext times both ciphertext polynomials, level + 1 limbs each.
    # This counts multiplies, not reductions: a giant row's sum of pmults
    # reduces each word once, not once per product.
    return 2 * (level + 1) * p.N


def rescale_mults(p: ParamProfile, level: int) -> int:
    # Per polynomial: invert the dropped limb, re-extend it across the
    # remaining limbs, and scale each by the dropped prime's inverse.
    return 2 * ((level + 1) * _butterflies(p.N) + level * p.N)


# ---------------------------------------------------------------------------
# Homomorphic (I)DFT pass costs.

class StageRotations(NamedTuple):
    """One stage's (step, amount) rotation pairs, by where they act: on
    the input, as baby steps, in the giant sum, on the rescaled output."""

    before: tuple[tuple[int, int], ...]
    babies: tuple[tuple[int, int], ...]
    giants: tuple[tuple[int, int], ...]
    after: tuple[tuple[int, int], ...]

    @property
    def flat(self) -> tuple[tuple[int, int], ...]:
        """Every pair, in the order the stage runs and logs them."""
        return self.before + self.babies + self.giants + self.after


@dataclass(frozen=True)
class PassShape:
    """Shape of one merged-radix transform pass, enough to cost it.

    This class declares and validates a schedule's shape and rotations
    once: `hdft.DftPlan` is a `PassShape`, and stage s is named only as
    (shape, s), its `stride(s)`, `rotations(s, variant)`, `minks_roll(s)`
    and `levels[s]`; `hdft_apply` performs what `rotations` lists and
    `hdft_pass_cost` prices it, so a plan runs what the model prices.
    `levels` lists each iteration's working level in execution order;
    every iteration ends in a rescale, so consecutive entries drop by one.
    """

    direction: str
    size: int
    k: int
    k1: int
    k2: int
    levels: tuple[int, ...]

    def __post_init__(self):
        if self.direction not in ("dft", "idft"):
            raise ConfigurationError("direction must be dft or idft")
        if self.size < 2 or self.size & (self.size - 1):
            raise ConfigurationError("size must be a power of two")
        if self.k1 < 1 or self.k2 < 1 or self.k1 + self.k2 != self.k + 1:
            raise ConfigurationError("split must satisfy k1 + k2 = k + 1")
        n_bits = self.size.bit_length() - 1
        if n_bits % self.k:
            raise ConfigurationError("k must divide log2(size)")
        if len(self.levels) != n_bits // self.k:
            raise ConfigurationError("one level per iteration required")
        for a, b in zip(self.levels, self.levels[1:]):
            if b != a - 1:
                raise ConfigurationError("levels must descend by one")

    @property
    def iterations(self) -> int:
        return len(self.levels)

    @classmethod
    def from_plan(cls, plan) -> "PassShape":
        """The bare shape of a plan, without its parameters and constants."""
        return cls(plan.direction, plan.size, plan.k, plan.k1, plan.k2,
                   plan.levels)

    def stride(self, s: int) -> int:
        """g_s, the unit stride of stage s's diagonals."""
        if not 0 <= s < self.iterations:
            raise ConfigurationError(f"stage {s} out of range")
        if self.direction == "dft":
            return 1 << (s * self.k)
        return self.size >> ((s + 1) * self.k)

    def rotations(self, s: int, variant: str) -> StageRotations:
        """Stage s's rotations as (step, amount) pairs: each rotates by
        its step, the amount mod size, under the key `make_rotation_keys`
        makes for that step, and is logged with its scheduled amount; a
        step of 0 is a no-op, with no key and no cost.

        The baseline pre-rotates by -2^k * g and rotates each baby i1 * g
        and giant i2 * 2^k1 * g by itself.  The grouped variants chain the
        babies through step g and fold the giants through step 2^k1 * g; a
        fix-up by 1 rotates a DFT's input or an IDFT's output under that
        stage's own stride-1 key.  At the wrap stage, g = size / 2^k, the
        baseline's -size and 2^(k2-1) * 2^k1 * g = size are no-ops and
        giants i2 and i2 + 2^(k2-1) share a step; the grouped giant step
        is 0 when k2 = 1.
        """
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {variant!r}")
        g, big = self.stride(s), 1 << self.k1
        if variant == "baseline":       # each amount rotates by itself
            amounts = ((-(1 << self.k) * g,), range(g, big * g, g),
                       range(big * g, big * g << self.k2, big * g), ())
            return StageRotations(*(tuple((a % self.size, a) for a in part)
                                    for part in amounts))
        gee = big * g % self.size
        fix, last = ((1, 1),), self.iterations - 1
        return StageRotations(
            fix if (self.direction, s) == ("dft", 0) else (),
            tuple((g, i * g) for i in range(1, big)),
            ((gee, gee),) * ((1 << self.k2) - 1),
            fix if (self.direction, s) == ("idft", last) else ())

    def minks_roll(self, s: int) -> int:
        """The rotation the grouped variants leave on stage s's output,
        which the next stage's constants absorb as a cyclic roll.  Without
        the baseline's pre-rotation each stage adds (2^k - 1) * g, and a
        DFT starts at 1 from the fix-up on its input, so the closing
        fix-up in `rotations` repairs the total: it ends at size - 1
        after an IDFT, which the output's stride-1 rotation completes,
        and at 0 after a DFT."""
        # stride(s) refuses a stage out of range before the sum below.
        walked = self.stride(s) + sum(map(self.stride, range(s)))
        start = 1 if self.direction == "dft" else 0
        return (start + ((1 << self.k) - 1) * walked) % self.size

    def required_steps(self, variant: str) -> list[int]:
        """Physical rotation steps whose keys the variant consults: every
        step of `rotations` bar the no-op 0."""
        steps = {step for s in range(self.iterations)
                 for step, _ in self.rotations(s, variant).flat}
        return sorted(steps - {0})


def bootstrap_pass_shapes(p: ParamProfile, k: int, split: tuple[int, int]
                          ) -> tuple[PassShape, PassShape]:
    """Default slot-to-coefficient schedules around a bootstrap.

    The inverse transform runs right after the raise, starting at the
    top level; the forward transform runs at the bottom of the modulus
    chain, finishing at level 2, so its plaintexts and keys stay small.

    That is one level above `hdft.build_dft_plan`'s default, which every
    desk bootstrap runs: this shape returns at level 1, keeping a level
    for a multiply, and the plan at level 0.  Neither reads `L_boot`,
    the levels a bootstrap consumes.  At desk with k = 6 the model prices
    the DFT at levels (3, 2) and the plan runs (2, 1).  Both sides are
    pinned, so neither moves; price a run as itself,
    `hdft_pass_cost(plan, ...)`.
    """
    if k < 1:
        raise ConfigurationError("k must be positive")
    size = p.N // 2
    iters = (size.bit_length() - 1) // k
    k1, k2 = split
    idft = PassShape("idft", size, k, k1, k2,
                     tuple(range(p.L, p.L - iters, -1)))
    dft = PassShape("dft", size, k, k1, k2,
                    tuple(range(iters + 1, 1, -1)))
    return idft, dft


@dataclass(frozen=True)
class StageCost:
    level: int
    evk_loads: int
    evk_bytes: int
    plaintext_bytes: int
    modular_mults: int


@dataclass(frozen=True)
class CostReport:
    """Off-chip traffic and compute of one transform pass, by stage."""

    variant: str
    stages: tuple[StageCost, ...]

    @property
    def evk_bytes(self) -> int:
        return sum(st.evk_bytes for st in self.stages)

    @property
    def plaintext_bytes(self) -> int:
        return sum(st.plaintext_bytes for st in self.stages)

    @property
    def modular_mults(self) -> int:
        return sum(st.modular_mults for st in self.stages)

    @property
    def evk_loads(self) -> int:
        return sum(st.evk_loads for st in self.stages)

    @property
    def offchip_bytes(self) -> int:
        return self.evk_bytes + self.plaintext_bytes

    @property
    def ops_per_byte(self) -> float:
        if self.offchip_bytes == 0:
            return 0.0
        return self.modular_mults / self.offchip_bytes


def hdft_pass_cost(shape: PassShape, p: ParamProfile,
                   variant: str) -> CostReport:
    """Cost one homomorphic (I)DFT pass at a profile.

    `shape` is a `PassShape` or an `hdft.DftPlan`, which is one.  Stage s
    loads one key per distinct nonzero step of `shape.rotations(s,
    variant)`, as `hdft_apply` expands one, and pays a key switch for
    each of its pairs whose step is nonzero: a step-0 rotation loads
    nothing and costs nothing.  `rotations` refuses an unknown variant at
    stage 0, before anything is priced.

    The plaintext terms price every constant at N words per limb (per
    seed for OF-Limb), and the OF-Limb compute term (level + 1) N-point
    transforms per seed.  These are upper bounds: stage s stores one
    period, min(N, 2^(k+1) * g_s) words per limb or seed (`hdft`'s module
    docstring), so at full width with k = 6 the two g = 1 stages store 64
    times fewer bytes, and run fewer butterflies, than this report counts.
    """
    diagonals = (1 << (shape.k + 1)) - 1
    stages = []
    for s, level in enumerate(shape.levels):
        steps = [step for step, _ in shape.rotations(s, variant).flat]
        rotations = len(steps) - steps.count(0)
        loads = len(set(steps) - {0})
        mults = (rotations * keyswitch_mults(p, level).total
                 + diagonals * pmult_mults(p, level)
                 + rescale_mults(p, level))
        pt_bytes = diagonals * (p.N * p.word_bytes
                                if variant == "minks-oflimb"
                                else plaintext_bytes_at(p, level))
        if variant == "minks-oflimb":
            mults += diagonals * (level + 1) * _butterflies(p.N)
        stages.append(StageCost(level, loads, loads * evk_bytes_at(p, level),
                                pt_bytes, mults))
    return CostReport(variant, tuple(stages))


# ---------------------------------------------------------------------------
# Derived metrics.

def utilization_bound(m: MachineProfile, single_use_bytes: float,
                      workload_mults: float) -> float:
    """Fraction of multiplier capacity a bandwidth-bound pass can use.

    Loading the single-use data takes bytes / bandwidth seconds; the
    multipliers could retire count * clock * time mults in that window,
    and the workload only has `workload_mults` to offer.
    """
    if single_use_bytes <= 0 or workload_mults <= 0:
        raise ConfigurationError("inputs must be positive")
    load_time = single_use_bytes / m.offchip_bandwidth_bytes_per_s
    capacity = m.modular_multiplier_count * m.clock_hz * load_time
    return min(1.0, workload_mults / capacity)


def distribution_transfer(p: ParamProfile, policy: str) -> int:
    """Words moved between compute clusters per key-switching.

    Alternating coefficient- and limb-wise layouts pays one all-to-all
    per base-conversion routine; staying limb-wise pays two all-to-alls
    of the full extended working set at the accumulation instead.
    """
    words = (p.alpha + p.L + 1) * p.N
    if policy == POLICY_ALTERNATING:
        return (p.dnum + 2) * words
    if policy == POLICY_LIMB_WISE:
        return 2 * p.dnum * words
    raise ConfigurationError(f"unknown policy {policy!r}")


def tas_metric(t_boot: float, t_mult: Callable[[int], float],
               p: ParamProfile) -> float:
    """Amortized multiply time per slot.

    A bootstrap consumes L_boot levels, so it buys L - L_boot rescale
    levels across n slots; the cost of the bootstrap plus one multiply
    per recovered level, spread over every level of every slot, prices
    the scheme's throughput.
    """
    if p.L_boot is None or p.L <= p.L_boot:
        raise ConfigurationError("profile must recover at least one level")
    depth = p.L - p.L_boot
    total = t_boot + sum(t_mult(level) for level in range(1, depth + 1))
    return total / depth / p.n

