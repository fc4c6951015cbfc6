"""The batched see-saw against its per-restart loop.

`block_positivity_min` runs every restart in one stacked contraction and one
stacked eigh per half-step. The reference below is the loop it replaced: one
restart at a time, one 4 x 4 contraction and one eigh per half-step. Each
restart keeps its own seed stream and stopping rule, so the two must agree
bit for bit, including restarts that run to the iteration cap.
"""
import math

import numpy as np
import pytest

from ewcones.certify import SEESAW_FTOL, SEESAW_MAX_ITER, block_positivity_min
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.maps import Witness, max_entangled_projector


def ref_block_positivity_min(w, restarts, seed):
    """The former loop; also returns how many restarts hit the iteration cap."""
    n = w.n
    w4 = w.operator.reshape(n, n, n, n)
    best = math.inf
    capped = 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        value = math.inf
        for _ in range(SEESAW_MAX_ITER):
            m = np.einsum("i,ikjl,j->kl", psi.conj(), w4, psi)
            vals, vecs = np.linalg.eigh(m)
            phi = vecs[:, 0]
            m = np.einsum("k,ikjl,l->ij", phi.conj(), w4, phi)
            vals, vecs = np.linalg.eigh(m)
            psi = vecs[:, 0]
            new_value = float(vals[0])
            if value - new_value < SEESAW_FTOL:
                value = min(value, new_value)
                break
            value = new_value
        else:
            capped += 1
        best = min(best, value)
    return float(best), capped


def same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def rotation_members():
    rng = np.random.default_rng(2012)
    for k in range(4):
        parity = ("proper", "improper")[k % 2]
        yield witness_from_params(abcd_from_euler(*rng.uniform(0.0, 2.0 * np.pi, 3), parity=parity))


WITNESSES = {
    "reduction": witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0)),
    "1110": witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0)),
    "minus_projector": Witness(n=4, operator=-max_entangled_projector(4)),
}


@pytest.mark.parametrize("restarts", [1, 4, 16, 64])
def test_batched_seesaw_matches_restart_loop(restarts):
    members = list(rotation_members()) + list(WITNESSES.values())
    for k, w in enumerate(members):
        seed = k % 4
        got = block_positivity_min(w, restarts=restarts, seed=seed)
        assert same_bits(got, ref_block_positivity_min(w, restarts, seed)[0]), (k, restarts, seed)


def test_batched_seesaw_matches_loop_at_iteration_cap():
    w = WITNESSES["1110"]
    expected, capped = ref_block_positivity_min(w, 16, 0)
    assert capped > 0, "no restart of (1,1,1,0), seed 0 reaches the iteration cap"
    assert same_bits(block_positivity_min(w, restarts=16, seed=0), expected)


def test_block_positivity_restart_prefix_is_exact():
    # restart r's value does not depend on the batch size, so no slack is needed
    w = WITNESSES["1110"]
    values = [block_positivity_min(w, restarts=r, seed=3) for r in range(1, 17)]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_is_named_in_the_error(seed):
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        block_positivity_min(WITNESSES["1110"], restarts=2, seed=seed)


@pytest.mark.parametrize("restarts", [0, -2])
def test_restarts_below_one_are_named_in_the_error(restarts):
    # 0 restarts used to return inf, and -2 numpy's bare "negative dimensions"
    with pytest.raises(ValueError, match=f"^restarts must be at least 1, got {restarts}$"):
        block_positivity_min(WITNESSES["1110"], restarts=restarts, seed=0)
