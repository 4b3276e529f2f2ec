"""Packed canonical embedding against the dense transform matrix."""

import numpy as np
import pytest

from oracles import oracle_slot_transform
from rnsckks.embedding import (packed_to_slots, rotation_powers,
                               slots_to_packed)


@pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
def test_forward_matches_dense_matrix(n):
    rng = np.random.default_rng([11, n])
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    fast = packed_to_slots(x)
    dense = oracle_slot_transform(n) @ x
    assert np.allclose(fast, dense, rtol=0, atol=1e-9 * n)


@pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
def test_roundtrip_is_identity(n):
    rng = np.random.default_rng([13, n])
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    back = slots_to_packed(packed_to_slots(x))
    assert np.allclose(back, x, rtol=0, atol=1e-9 * n)
    fwd = packed_to_slots(slots_to_packed(x))
    assert np.allclose(fwd, x, rtol=0, atol=1e-9 * n)


def test_stacked_rows_transform_independently():
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
    batched = packed_to_slots(rows)
    for i in range(5):
        assert np.allclose(batched[i], packed_to_slots(rows[i]),
                           rtol=0, atol=1e-12)
    assert np.allclose(slots_to_packed(batched), rows, rtol=0, atol=1e-9)


def test_rotation_orbit_covers_odd_residues_half():
    """5 generates half the odd residues mod 4n; orbit entries are unique."""
    n = 64
    rg = rotation_powers(n)
    assert len(set(int(v) for v in rg)) == n
    assert all(v % 2 == 1 for v in rg)
    assert rg[0] == 1


def test_slot_rotation_is_cyclic_shift():
    """Composing the input with 5^r reindexes slots by a cyclic shift."""
    n = 64
    rng = np.random.default_rng(19)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    slots = packed_to_slots(x)
    v = oracle_slot_transform(n)
    for r in (1, 3, 17):
        # Row j of V evaluates at zeta^(5^j); shifting j by r permutes rows.
        rotated = np.roll(slots, -r)
        assert np.allclose(v[(np.arange(n) + r) % n] @ x, rotated,
                           rtol=0, atol=1e-9)
