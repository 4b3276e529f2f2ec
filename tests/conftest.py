"""Shared fixtures: key material is expensive, so it is built once per
session from fixed seeds and never mutated by tests."""

from __future__ import annotations

import signal
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import rnsckks.rnspoly as rnspoly_module
from rnsckks.ckks import (CkksParams, keygen, make_relin_key,
                          make_rotation_keys)
from rnsckks.hdft import DFT, IDFT, build_dft_plan, roundtrip_plans


@pytest.fixture
def ntt_rows(monkeypatch):
    """Rows the scheme transforms, tallied by (direction, length): every
    transform of a scheme or hdft operation goes through `rnspoly.ntt`."""
    tally = Counter()
    real = rnspoly_module.ntt

    def counting(values, mod, direction="forward", *args, **kwargs):
        shape = np.shape(values)
        tally[direction, shape[-1]] += int(np.prod(shape[:-1]))
        return real(values, mod, direction, *args, **kwargs)

    monkeypatch.setattr(rnspoly_module, "ntt", counting)
    return tally


class Expired(BaseException):
    """Raised by `time_limit`; not an Exception, so no `except Exception`
    in the code under test can turn it into a pass."""


@pytest.fixture(scope="session")
def time_limit():
    """`with time_limit(seconds):` fails a block that would hang."""
    @contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise Expired(f"still running after {seconds} s")
        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    return limit


@pytest.fixture(scope="session")
def params():
    return CkksParams()


@pytest.fixture(scope="session")
def sk(params):
    return keygen(params, np.random.default_rng([7, 0]))


@pytest.fixture(scope="session")
def relin(params, sk):
    return make_relin_key(params, sk, np.random.default_rng([7, 1]))


@pytest.fixture(scope="session")
def rot_keys(params, sk):
    steps = (1, 2, 5, params.n_slots // 2)
    return make_rotation_keys(params, sk, steps,
                              np.random.default_rng([7, 2]))


@pytest.fixture(scope="session")
def message_plans(params):
    """IDFT then DFT over 64 slots, radix 4, scheduled back to back."""
    return roundtrip_plans(params, size=64, k=2, split=(1, 2))


@pytest.fixture(scope="session")
def message_keys(params, sk, message_plans):
    steps = set()
    for plan in message_plans:
        for variant in ("baseline", "minks"):
            steps |= set(plan.required_steps(variant))
    return make_rotation_keys(params, sk, steps,
                              np.random.default_rng([7, 3]))


@pytest.fixture(scope="session")
def boot_plans(params):
    """Full-width transform pair: the modulus-raise residue is not periodic
    across slot blocks, so the bootstrap needs all n_ring/2 slots."""
    return (build_dft_plan(params, IDFT, k=6, split=(3, 4)),
            build_dft_plan(params, DFT, k=6, split=(3, 4)))


@pytest.fixture(scope="session")
def oflimb_boot_plans(boot_plans):
    """The full-width pair with only its OF-Limb seeds built."""
    plans = tuple(replace(plan, _consts={}) for plan in boot_plans)
    for plan in plans:
        plan.stage_constants("minks-oflimb")
    return plans


@pytest.fixture(scope="session")
def boot_keys(params, sk, boot_plans):
    steps = set()
    for plan in boot_plans:
        steps |= set(plan.required_steps("minks"))
    return make_rotation_keys(params, sk, steps,
                              np.random.default_rng([7, 4]))


@pytest.fixture(scope="session")
def bootstrap_run(params, sk, boot_plans, boot_keys):
    """One full-scale bootstrap execution, shared by every test that
    inspects its output, levels, or key-usage log."""
    from rnsckks.ckks import encode, encrypt
    from rnsckks.hdft import EvkUsageLog, bootstrap

    rng = np.random.default_rng([7, 5])
    v = (rng.uniform(-1, 1, params.n_slots)
         + 1j * rng.uniform(-1, 1, params.n_slots))
    ct = encrypt(params, encode(params, v, level=0), sk, rng)
    log = EvkUsageLog()
    out = bootstrap(params, ct, sk, boot_keys, rng, plans=boot_plans,
                    variant="minks", log=log)
    return v, ct, out, log


@pytest.fixture(scope="session")
def tiny_params():
    """Smallest ring that still runs every code path; oracle friendly."""
    return CkksParams(n_ring=64, n_slots=4, levels=2, alpha=1)


@pytest.fixture(scope="session")
def tiny_sk(tiny_params):
    return keygen(tiny_params, np.random.default_rng([9, 0]))
