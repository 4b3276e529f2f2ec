"""The benchmark's seeded workloads.

Each workload is a closed loop with one client at the desk defaults of
`CkksParams()`.  A workload splits one unit into `prepare` (make the
inputs, untimed), `run` (the timed call into the library) and `check`
(compare the output with a numpy reference, untimed).  Every random
value comes from the `--seed` argument; the library only ever sees the
generated inputs and the generators its API asks for.

Calls go through the package namespace (`rk.encode`, not a local
`from rnsckks import encode`) so the tracer, which rebinds the package
attributes, sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import rnsckks as rk

PARAMS = rk.CkksParams()

# Streams drawn from one seed: key material, message inputs, encryption
# noise.  Both bootstrap workloads therefore see the same keys and inputs.
KEYS, INPUTS, NOISE = 0, 1, 2


def rel_error(got, want) -> float:
    """The tier-1 error measure: worst slot error over max(|want|, 1)."""
    return float(np.max(np.abs(got - want))
                 / max(np.max(np.abs(want)), 1.0))


def random_slots(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)


@dataclass
class Check:
    """Errors of one unit against its budgets, plus counts for the trace."""

    errors: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def error(self, name: str, err: float, limit: float):
        self.errors.append(err)
        if not err < limit:
            self.failures.append(f"{name}: error {err:.3g} >= {limit:.3g}")

    def equal(self, name: str, got, want):
        if got != want:
            self.failures.append(f"{name}: {got!r} != {want!r}")

    @property
    def worst(self) -> float:
        return max(self.errors)


class SchemeMix:
    """One unit is one trial of the tier-1 100-trial scheme gate."""

    setup_reps = 7
    steps = (1, 2, 5, PARAMS.n_slots // 2)

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = np.random.default_rng([seed, INPUTS])
        self.noise = np.random.default_rng([seed, NOISE])

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, KEYS])
        sk = rk.keygen(PARAMS, rng)
        return {"sk": sk,
                "relin": rk.make_relin_key(PARAMS, sk, rng),
                "rot": rk.make_rotation_keys(PARAMS, sk, self.steps, rng)}

    def prepare(self, state, index: int) -> dict:
        n = PARAMS.n_slots
        return {"v": random_slots(self.inputs, n),
                "w": random_slots(self.inputs, n),
                "z": random_slots(self.inputs, n),
                "r": self.steps[index % len(self.steps)]}

    def run(self, state, inp) -> dict:
        p, sk = PARAMS, state["sk"]
        ct = rk.encrypt(p, rk.encode(p, inp["v"]), sk, self.noise)
        dt = rk.encrypt(p, rk.encode(p, inp["w"]), sk, self.noise)
        prod = rk.hrescale(p, rk.hmult(p, ct, dt, state["relin"]))
        r = inp["r"]
        return {
            "fresh": rk.slot_values(p, ct, sk),
            "hadd": rk.slot_values(p, rk.hadd(ct, dt), sk),
            "pmult": rk.slot_values(
                p, rk.pmult(ct, rk.encode(p, inp["z"])), sk),
            "hmult": rk.slot_values(p, prod, sk),
            "hrot": rk.slot_values(p, rk.hrot(p, ct, r, state["rot"][r]), sk),
        }

    def check(self, state, inp, out) -> Check:
        b = PARAMS.budgets
        v, w = inp["v"], inp["w"]
        c = Check()
        c.error("fresh", rel_error(out["fresh"], v), b.fresh)
        c.error("hadd", rel_error(out["hadd"], v + w), 2 * b.fresh)
        c.error("pmult", rel_error(out["pmult"], v * inp["z"]), b.multiply)
        c.error("hmult", rel_error(out["hmult"], v * w), b.multiply)
        c.error("hrot", rel_error(out["hrot"], np.roll(v, -inp["r"])),
                b.fresh * b.rotate_factor)
        return c

    def const_mib(self, state) -> float:
        return 0.0


class Bootstrap:
    """One unit is one full-width bootstrap of a fresh level-0 ciphertext."""

    k, split = 6, (3, 4)

    def __init__(self, seed: int, variant: str, setup_reps: int):
        self.seed = seed
        self.variant = variant
        self.setup_reps = setup_reps
        self.inputs = np.random.default_rng([seed, INPUTS])
        self.noise = np.random.default_rng([seed, NOISE])

    def setup(self) -> dict:
        """Keys, both transform plans and their encoded (or seeded)
        constants: everything a bootstrap needs before its first call."""
        rng = np.random.default_rng([self.seed, KEYS])
        sk = rk.keygen(PARAMS, rng)
        plans = (rk.build_dft_plan(PARAMS, rk.IDFT, k=self.k,
                                   split=self.split),
                 rk.build_dft_plan(PARAMS, rk.DFT, k=self.k,
                                   split=self.split))
        steps = sorted({s for plan in plans
                        for s in plan.required_steps(self.variant)})
        keys = rk.make_rotation_keys(PARAMS, sk, steps, rng)
        for plan in plans:
            plan.stage_constants(self.variant)
        return {"sk": sk, "plans": plans, "keys": keys}

    def prepare(self, state, index: int) -> dict:
        v = random_slots(self.inputs, PARAMS.n_ring // 2)
        ct = rk.encrypt(PARAMS, rk.encode(PARAMS, v, level=0), state["sk"],
                        self.noise)
        return {"v": v, "ct": ct}

    def run(self, state, inp) -> tuple:
        log = rk.EvkUsageLog()
        out = rk.bootstrap(PARAMS, inp["ct"], state["sk"], state["keys"],
                           self.noise, plans=state["plans"],
                           variant=self.variant, log=log)
        return out, log

    def check(self, state, inp, res) -> Check:
        out, log = res
        c = Check()
        c.error("bootstrap", rel_error(rk.slot_values(PARAMS, out, state["sk"]),
                                       inp["v"]),
                PARAMS.budgets.bootstrap)
        for plan in state["plans"]:
            d = plan.direction
            c.equal(f"{d} evk loads by stage", log.loads_by_stage(d),
                    {s: 2 for s in range(plan.iterations)})
            c.counts[f"{d}.evk_loads"] = log.loads(d)
        c.counts["evk_loads_per_stage"] = max(
            n for plan in state["plans"]
            for n in log.loads_by_stage(plan.direction).values())
        return c

    def const_mib(self, state) -> float:
        """Bytes of the stored plan constants: full plaintexts for minks,
        single-limb seeds for minks-oflimb."""
        total = 0
        for plan in state["plans"]:
            for stage in plan.stage_constants(self.variant):
                for entry in stage.values():
                    arr = entry.q0_limb if isinstance(entry, rk.PlaintextSeed) \
                        else entry.poly.limbs
                    total += arr.nbytes
        return total / 2 ** 20


# Set-up is repeated and its median reported where it is cheap (the first,
# cold set-up is one sample of several); the min-KS constants take 9-14 s
# to encode, so boot-minks sets up once.
WORKLOADS = {
    "scheme-mix": SchemeMix,
    "boot-minks": lambda seed: Bootstrap(seed, "minks", setup_reps=1),
    "boot-oflimb": lambda seed: Bootstrap(seed, "minks-oflimb",
                                          setup_reps=5),
}
