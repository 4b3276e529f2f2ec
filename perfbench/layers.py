"""Which library functions the traced run wraps, the per-layer metrics
read from their spans, and the cost-model cross-check.

Per-unit figures count only spans inside a "unit" span, divided by the
number of traced units; set-up figures count spans inside the one
traced "setup" span.  Self time is a span's duration minus its direct
children's, so the kernel rows of this table add up to the unit time
without double counting.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict

import numpy as np

import rnsckks as rk

ckks = importlib.import_module("rnsckks.ckks")
costmodel = importlib.import_module("rnsckks.costmodel")
embedding = importlib.import_module("rnsckks.embedding")
hdft = importlib.import_module("rnsckks.hdft")
modmath = importlib.import_module("rnsckks.modmath")
ntt_module = importlib.import_module("rnsckks.ntt")
rnspoly = importlib.import_module("rnsckks.rnspoly")

CKKS_OPS = ("encode", "encrypt", "decrypt", "decode", "pmult", "hadd",
            "hmult", "key_switch", "hrot", "hrescale")
# Levels a key switch or rescale runs at on some workload: scheme-mix
# works at L = 7; the bootstrap's IDFT stages run at 7 and 6 with its
# exit fix-up rotation at 5, its DFT stages at 2 and 1.
KEY_SWITCH_LEVELS = (7, 6, 5, 2, 1)
RESCALE_LEVELS = (7, 6, 2, 1)
PASSES = (rk.IDFT, rk.DFT)


def _fixed(name):
    return lambda args, kwargs: (name, None)


def _ntt_label(args, kwargs):
    """Single-limb calls by direction; (rows, N) stacks as one batch."""
    values = args[0]
    direction = args[2] if len(args) > 2 else kwargs.get("direction",
                                                         "forward")
    if np.ndim(values) == 1:
        return ("ntt.fwd" if direction == "forward" else "ntt.inv"), 1
    return "ntt.batched", int(np.size(values) // np.shape(values)[-1])


def _key_switch_label(args, kwargs):
    return "ckks.key_switch", len(args[1].basis) - 1


def _hrescale_label(args, kwargs):
    return "ckks.hrescale", args[1].level


def _hdft_apply_label(args, kwargs):
    return f"hdft.hdft_apply.{args[2].direction}", None


LABELS = {
    modmath.barrett_mul: _fixed("modmath.barrett_mul"),
    modmath.shoup_mul: _fixed("modmath.shoup_mul"),
    ntt_module.ntt: _ntt_label,
    **{getattr(rnspoly, f): _fixed(f"rnspoly.{f}")
       for f in ("base_convert", "rp_mul", "rp_add", "automorphism",
                 "crt_reconstruct")},
    embedding.slots_to_packed: _fixed("embedding.slots_to_packed"),
    embedding.packed_to_slots: _fixed("embedding.packed_to_slots"),
    **{getattr(ckks, op): _fixed(f"ckks.{op}")
       for op in CKKS_OPS if op not in ("key_switch", "hrescale")},
    ckks.key_switch: _key_switch_label,
    ckks.hrescale: _hrescale_label,
    hdft.hdft_apply: _hdft_apply_label,
    hdft.DftPlan.stage_constants: _fixed("hdft.stage_constants"),
}


def owners() -> list:
    """Every place a wrapped function can be bound: each loaded module of
    the package (the package itself included) and the plan class."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "rnsckks" or name.startswith("rnsckks.")]
    return mods + [hdft.DftPlan]


# ---------------------------------------------------------------------------
# Metric names and units, in the order BENCHMARK.json lists them.

def per_layer_units() -> dict[str, str]:
    u = {}
    for f in ("barrett_mul", "shoup_mul"):
        u[f"modmath.{f}.calls"] = "calls/unit"
        u[f"modmath.{f}.self_s"] = "s/unit"
    for k in ("fwd", "inv", "batched"):
        u[f"ntt.{k}.rows"] = "rows/unit"
        u[f"ntt.{k}.self_s"] = "s/unit"
    u["setup.ntt.batched.rows"] = "rows/setup"
    u["setup.ntt.batched.self_s"] = "s/setup"
    u["rnspoly.base_convert.calls"] = "calls/unit"
    for f in ("base_convert", "rp_mul", "rp_add", "automorphism",
              "crt_reconstruct"):
        u[f"rnspoly.{f}.self_s"] = "s/unit"
    for f in ("slots_to_packed", "packed_to_slots"):
        u[f"embedding.{f}.self_s"] = "s/unit"
    for op in CKKS_OPS:
        u[f"ckks.{op}.calls"] = "calls/unit"
        u[f"ckks.{op}.total_s"] = "s/unit"
        u[f"ckks.{op}.self_s"] = "s/unit"
    for op, levels in (("key_switch", KEY_SWITCH_LEVELS),
                       ("hrescale", RESCALE_LEVELS)):
        for lv in levels:
            u[f"ckks.{op}.L{lv}.ntt_rows"] = "rows/call"
            u[f"ckks.{op}.L{lv}.ntt_rows.measured_over_model"] = "ratio"
    for d in PASSES:
        u[f"hdft.hdft_apply.{d}.total_s"] = "s/unit"
    u["hdft.stage_constants.total_s"] = "s/setup"
    u["hdft.const_mib"] = "MiB"
    u["hdft.evk_loads"] = "loads/stage"
    u["hdft.rotations"] = "count/unit"
    u["hdft.pmults"] = "count/unit"
    for d in PASSES:
        for c in ("rotations", "pmults", "evk_loads"):
            u[f"hdft.{d}.{c}.measured_over_model"] = "ratio"
    u["trace.overhead_frac"] = "frac"
    return u


# ---------------------------------------------------------------------------
# Aggregation.

class Aggregate:
    """Calls, inclusive time, self time and NTT rows per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.rows = defaultdict(int)

    def add(self, span, self_s):
        self.calls[span.name] += 1
        self.total[span.name] += span.duration
        self.self_s[span.name] += self_s
        if span.name.startswith("ntt."):
            self.rows[span.name] += span.attr


def aggregate(tracer) -> dict:
    """Fold the spans into the per-phase tables and the nested counts the
    cross-check needs."""
    spans = tracer.spans
    phase = tracer.ancestors_named({"setup", "unit"})
    owner = tracer.ancestors_named({"ckks.key_switch", "ckks.hrescale"})
    passes = tracer.ancestors_named({f"hdft.hdft_apply.{d}"
                                     for d in PASSES})
    selfs = tracer.self_times()
    tables = {"setup": Aggregate(), "unit": Aggregate()}
    op_calls = defaultdict(int)      # (op span name, level) -> calls
    op_rows = defaultdict(int)       # (op span name, level) -> NTT rows
    pass_ops = defaultdict(int)      # (direction, op span name) -> calls
    for i, s in enumerate(spans):
        if phase[i] < 0 or i == phase[i]:
            continue
        where = spans[phase[i]].name
        tables[where].add(s, selfs[i])
        if where != "unit":
            continue
        if i == owner[i]:
            op_calls[(s.name, s.attr)] += 1
        elif owner[i] >= 0 and s.name.startswith("ntt."):
            o = spans[owner[i]]
            op_rows[(o.name, o.attr)] += s.attr
        if passes[i] >= 0 and s.name in ("ckks.hrot", "ckks.pmult"):
            d = spans[passes[i]].name.rsplit(".", 1)[1]
            pass_ops[(d, s.name)] += 1
    return {"tables": tables, "op_calls": op_calls, "op_rows": op_rows,
            "pass_ops": pass_ops}


# ---------------------------------------------------------------------------
# Cost-model closed forms at the desk profile.

def _butterflies(n: int) -> int:
    """Mults of one limb transform as the cost model counts them."""
    return n // 2 * (n.bit_length() - 1)


def desk_profile(params) -> "costmodel.ParamProfile":
    p = costmodel.PROFILES["desk"]
    if (p.N, p.L, p.alpha, p.dnum) != (params.n_ring, params.levels,
                                       params.alpha, params.dnum):
        raise ValueError("desk cost profile does not describe CkksParams()")
    return p


def model_key_switch_rows(p, level: int) -> float:
    """(dnum_l + 2)(alpha + l + 1), read back from keyswitch_mults."""
    return costmodel.keyswitch_mults(p, level).ntt / _butterflies(p.N)


def model_rescale_rows(p, level: int) -> float:
    """rescale_mults counts, per polynomial, l + 1 limb transforms and l
    scalings by the dropped prime's inverse; keep the transforms."""
    return (costmodel.rescale_mults(p, level) - 2 * level * p.N) \
        / _butterflies(p.N)


def model_pass_counts(p, plan, variant: str) -> dict[str, int]:
    """Rotations, pmults and key loads that hdft_pass_cost charges one
    pass.  The report carries rotations only inside each stage's mult
    total, so that total is solved for them; a remainder means the
    model's stage formula changed and the cross-check fails loudly."""
    shape = costmodel.PassShape.from_plan(plan)
    report = costmodel.hdft_pass_cost(shape, p, variant)
    diagonals = (1 << (shape.k + 1)) - 1
    rotations = 0
    for st in report.stages:
        rest = (st.modular_mults - diagonals * costmodel.pmult_mults(p, st.level)
                - costmodel.rescale_mults(p, st.level))
        if variant == "minks-oflimb":
            rest -= diagonals * (st.level + 1) * _butterflies(p.N)
        n, rem = divmod(rest, costmodel.keyswitch_mults(p, st.level).total)
        if rem:
            raise ValueError(f"stage at level {st.level}: mult total is not "
                             "a whole number of key switches")
        rotations += n
    return {"rotations": rotations,
            "pmults": diagonals * shape.iterations,
            "evk_loads": report.evk_loads}


# ---------------------------------------------------------------------------
# The per-layer table.

def per_layer_metrics(tracer, units: int, counts: dict, workload,
                      state, overhead_frac: float) -> tuple[dict, list]:
    """Per-layer values by name, and the model-vs-measured table rows
    (name, measured, model, ratio)."""
    agg = aggregate(tracer)
    unit, setup = agg["tables"]["unit"], agg["tables"]["setup"]
    m = {name: 0.0 for name in per_layer_units()}
    for name in unit.calls:
        for suffix, table in (("calls", unit.calls), ("total_s", unit.total),
                              ("self_s", unit.self_s)):
            key = f"{name}.{suffix}"
            if key in m:
                m[key] = table[name] / units
        if name.startswith("ntt."):
            m[f"{name}.rows"] = unit.rows[name] / units
    m["setup.ntt.batched.rows"] = setup.rows["ntt.batched"]
    m["setup.ntt.batched.self_s"] = setup.self_s["ntt.batched"]
    m["hdft.stage_constants.total_s"] = setup.total["hdft.stage_constants"]
    m["hdft.const_mib"] = workload.const_mib(state)
    m["hdft.evk_loads"] = counts.get("evk_loads_per_stage", 0.0)
    m["hdft.rotations"] = sum(agg["pass_ops"][(d, "ckks.hrot")]
                              for d in PASSES) / units
    m["hdft.pmults"] = sum(agg["pass_ops"][(d, "ckks.pmult")]
                           for d in PASSES) / units
    m["trace.overhead_frac"] = overhead_frac

    p = desk_profile(ckks.CkksParams())
    table = []

    def row(name, measured, model):
        ratio = measured / model if model else 0.0
        m[f"{name}.measured_over_model"] = ratio
        table.append((name, measured, model, ratio))

    for op, levels, model in (("ckks.key_switch", KEY_SWITCH_LEVELS,
                               model_key_switch_rows),
                              ("ckks.hrescale", RESCALE_LEVELS,
                               model_rescale_rows)):
        for lv in levels:
            calls = agg["op_calls"][(op, lv)]
            measured = agg["op_rows"][(op, lv)] / calls if calls else 0.0
            m[f"{op}.L{lv}.ntt_rows"] = measured
            if calls:
                row(f"{op}.L{lv}.ntt_rows", measured, model(p, lv))

    for plan in state.get("plans", ()):
        d = plan.direction
        model = model_pass_counts(p, plan, workload.variant)
        measured = {
            "rotations": agg["pass_ops"][(d, "ckks.hrot")] / units,
            "pmults": agg["pass_ops"][(d, "ckks.pmult")] / units,
            "evk_loads": counts[f"{d}.evk_loads"],
        }
        for c in ("rotations", "pmults", "evk_loads"):
            row(f"hdft.{d}.{c}", measured[c], model[c])
    return m, table
