"""The batched see-saw against its per-restart loop.

`block_positivity_min` runs every restart in one stacked contraction and one
stacked eigh per half-step. Each half-step contracts the running factors'
outer products with the realigned witness, whose row (k, l) and column (i, j)
hold <ik|W|jl>, in one stacked matmul of shape (B, 1, n^2) x (n^2, n^2): one
BLAS call of the same shape per restart, whatever the batch size B. The
reference below runs the same contraction on a one-row batch, one restart at
a time, from the same starts: one seeded draw, row r for restart r. Each
restart keeps its own stopping rule, so the two must agree bit for bit,
including restarts that run to the iteration cap. Two properties carry that
agreement and are tested on their own: a stacked matmul equals its rows
contracted one at a time, and the first k starts do not depend on the
restart count.

A witness diag - s|Phi><Phi|, which every family member is, takes the
secular half-step for its first SEESAW_SECULAR_ITER iterations; the reference
loop keeps that rule, and the half-step is checked on its own against eigh,
and stacked against one-column batches bit for bit.

The three-operand einsums the see-saw used before the realignment stay here
as a second reference, with eigh throughout: the contraction must match them
to rounding, and the see-saw's value must stay within SEESAW_FTOL of their
loop. The corpus holds a random complex Hermitian witness and an n = 3
witness, on which a swapped transpose cannot pass as it can on the real,
symmetric family witnesses.
"""
import math

import numpy as np
import pytest

from ewcones.certify import (
    SEESAW_FTOL,
    SEESAW_MAX_ITER,
    SEESAW_SECULAR_ITER,
    _phi_structure,
    _seesaw_starts,
    _secular_half_step,
    block_positivity_min,
)
from ewcones.family import WitnessParams, abcd_from_euler, n3_abc, witness_from_params
from ewcones.maps import Witness, _circulant, _ii_operator, max_entangled_projector


def realigned_halves(w):
    """The see-saw's two half-step contractions on the realigned witness."""
    n = w.n
    w2 = np.asarray(w.operator, dtype=complex).reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)
    w2t = np.ascontiguousarray(w2.T)

    def outer(v):
        return (v.conj()[:, :, None] * v[:, None, :]).reshape(-1, 1, n * n)

    return (
        lambda p: np.matmul(outer(p), w2t).reshape(-1, n, n),
        lambda phi: np.matmul(outer(phi), w2).reshape(-1, n, n),
    )


def secular_halves(w):
    """The see-saw's two secular half-steps, on restarts as rows, for a witness diag - s|Phi><Phi|; else none."""
    structure = _phi_structure(np.asarray(w.operator, dtype=complex), w.n)
    if structure is None:
        return []
    s, table = structure

    def half(t):
        def step(v, bound):
            value, vec = _secular_half_step(t, s, np.ascontiguousarray(v.T), bound)
            return value, vec.T

        return step

    return [half(table), half(np.ascontiguousarray(table.T))]


def former_halves(w):
    """The three-operand einsums the see-saw ran before the realignment."""
    n = w.n
    w4 = w.operator.reshape(n, n, n, n)
    return (
        lambda p: np.einsum("ri,ikjl,rj->rkl", p.conj(), w4, p),
        lambda phi: np.einsum("rk,ikjl,rl->rij", phi.conj(), w4, phi),
    )


def ref_starts(n, restarts, seed):
    """Unit starts, row r for restart r, from one draw of the seeded generator."""
    z = np.random.default_rng(seed).standard_normal((restarts, 2, n))
    psi = z[:, 0] + 1j * z[:, 1]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def ref_block_positivity_min(w, restarts, seed, halves=realigned_halves):
    """The per-restart loop on one-row batches; also returns how many restarts hit the iteration cap.

    With the realigned halves it keeps the see-saw's iteration rule: a witness
    diag - s|Phi><Phi| takes the secular half-step for its first
    SEESAW_SECULAR_ITER iterations, each warm-started from the value its
    product vector attains. The former einsum halves always take eigh.
    """
    first, second = halves(w)
    structure = _phi_structure(np.asarray(w.operator, dtype=complex), w.n) if halves is realigned_halves else None
    secular_iter = 0
    if structure is not None:
        secular_iter = SEESAW_SECULAR_ITER
        s, table = structure
        table_t = np.ascontiguousarray(table.T)
    starts = ref_starts(w.n, restarts, seed)
    best = math.inf
    capped = 0
    for r in range(restarts):
        psi = starts[r : r + 1]
        value = math.inf
        for iteration in range(SEESAW_MAX_ITER):
            if iteration < secular_iter:
                half, phi = _secular_half_step(table, s, psi.T, np.array([value]))
                vals, psi = _secular_half_step(table_t, s, phi, half)
                psi = psi.T
                new_value = float(vals[0])
            else:
                vals, vecs = np.linalg.eigh(first(psi))
                phi = vecs[:, :, 0]
                vals, vecs = np.linalg.eigh(second(phi))
                psi = vecs[:, :, 0]
                new_value = float(vals[0, 0])
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


def random_hermitian_witness(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return Witness(n=n, operator=(m + m.conj().T) / 2)


def n3_witness(alpha):
    """The n = 3 circulant witness of the planar rotation by alpha."""
    p = n3_abc(alpha)
    return Witness(n=3, operator=_ii_operator(_circulant([p.a, p.b, p.c]).ravel(), _circulant([p.a, -1.0, -1.0])))


def rotation_members():
    rng = np.random.default_rng(2012)
    for k in range(4):
        parity = ("proper", "improper")[k % 2]
        yield witness_from_params(abcd_from_euler(*rng.uniform(0.0, 2.0 * np.pi, 3), parity=parity))


WITNESSES = {
    "reduction": witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0)),
    "1110": witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0)),
    "minus_projector": Witness(n=4, operator=-max_entangled_projector(4)),
    "random_hermitian": random_hermitian_witness(4, 2012),
    "n3": n3_witness(1.0),
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
    expected, capped = ref_block_positivity_min(w, 16, 1)
    assert capped > 0, "no restart of (1,1,1,0), seed 1 reaches the iteration cap"
    assert same_bits(block_positivity_min(w, restarts=16, seed=1), expected)


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_stacked_contraction_equals_one_row_batches(name):
    # a numpy that folded the stacked matmul into one gemm would let the
    # batch size pick the kernel, and the summation order with it
    w = WITNESSES[name]
    rng = np.random.default_rng(29)
    for batch in (1, 7, 64, 129):
        v = rng.standard_normal((batch, w.n)) + 1j * rng.standard_normal((batch, w.n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for half in realigned_halves(w):
            got = half(v)
            rows = np.concatenate([half(v[r : r + 1]) for r in range(batch)])
            assert got.tobytes() == rows.tobytes(), (name, batch)
        # every fifth restart a basis vector, whose zero weights take the deflation branch
        v[::5] = np.eye(w.n)[rng.integers(0, w.n, len(v[::5]))]
        for half in secular_halves(w):
            cold = np.full(batch, np.inf)
            for bound in (cold, half(v, cold)[0] + rng.uniform(0.0, 1e-3, batch)):
                got = half(v, bound)
                rows = [half(v[r : r + 1], bound[r : r + 1]) for r in range(batch)]
                assert got[0].tobytes() == np.concatenate([r[0] for r in rows]).tobytes(), (name, batch)
                assert got[1].tobytes() == np.concatenate([r[1] for r in rows]).tobytes(), (name, batch)


def half_step_matrix(table, s, x):
    """diag(table^T |x|^2) - s z z^dagger with z = conj(x): a secular half-step's matrix."""
    z = x.conj()
    return np.diag((z * x).real @ table) - s * np.outer(z, z.conj())


def secular_corpus():
    """(table, x) pairs: random ones, then the edge cases of the secular solve."""
    rng = np.random.default_rng(41)
    cases = []
    for n in (2, 3, 4, 4, 5):
        for _ in range(40):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cases.append((rng.uniform(0.0, 4.0, (n, n)), x / np.linalg.norm(x)))
    x = np.array([0.0, 1.0, 1j, -1.0]) / math.sqrt(3.0)
    low = np.full((4, 4), 3.0)
    # a lowest entry without weight: s S(e_0) <= 1 keeps e_0 and its basis
    # vector, s S(e_0) > 1 a root below it
    low[:, 0] = 0.1
    cases.append((low, x))
    near = np.full((4, 4), 3.0)
    near[:, 0] = 2.9
    cases.append((near, x))
    # tied lowest entries, with and without weight on one of them
    tied = rng.uniform(1.0, 4.0, (4, 4))
    tied[:, 1] = tied[:, 0] = 0.5
    cases.append((tied, np.array([0.5, 0.5j, -0.5, 0.5])))
    cases.append((tied, x))
    # a subnormal weight on the lowest entry, which leaves the equation (s w_0
    # is below the normal range, and 0 for s = 1/4): a root far below e_0
    # (s S > 1 from the other entries alone), and e_0 with its basis vector
    tiny = np.array([3.5e-162, 1.0, 1.0, 1.0]) / math.sqrt(3.0)
    for rest in (0.6, 3.0):
        table = np.full((4, 4), rest)
        table[:, 0] = 0.5
        cases.append((table, tiny))
    return cases


@pytest.mark.parametrize("s", [1.0, 0.25])
def test_secular_half_step_matches_eigh(s):
    # bounds: the eigenvalue within 1e-14 of eigvalsh, the eigenvector's
    # residual max|M v - lambda v| within 4e-15 and its norm within 1e-15 of
    # 1, from a cold start and from a bound some unit vector attains (at
    # most 2.7e-15, 5.0e-16 and 2.3e-16 here)
    rng = np.random.default_rng(43)
    for k, (table, x) in enumerate(secular_corpus()):
        m = half_step_matrix(table, s, x)
        u = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        u /= np.linalg.norm(u)
        for bound in (math.inf, float((u.conj() @ m @ u).real)):
            value, vec = _secular_half_step(table, s, x[:, None], np.array([bound]))
            value, vec = value[0], vec[:, 0]
            assert abs(value - np.linalg.eigvalsh(m)[0]) <= 1e-14, (k, bound)
            assert np.max(np.abs(m @ vec - value * vec)) <= 4e-15, (k, bound)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15, (k, bound)


def test_secular_half_step_takes_both_deflation_branches():
    cases = secular_corpus()[200:]
    for s in (1.0, 0.25):
        kept, root = (_secular_half_step(t, s, x[:, None], np.array([math.inf])) for t, x in cases[:2])
        assert kept[0][0] == pytest.approx(0.1, abs=1e-15) and kept[1][:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert root[0][0] < 2.9 and root[1][0, 0] == 0.0


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_phi_structure_is_read_exactly(name):
    # every witness but the random Hermitian one is diag - s|Phi><Phi|
    w = WITNESSES[name]
    op = np.asarray(w.operator, dtype=complex)
    structure = _phi_structure(op, w.n)
    assert (structure is None) == (name == "random_hermitian")
    if structure is not None:
        s, table = structure
        phi = np.eye(w.n).ravel()
        assert s > 0 and np.array_equal(op + s * np.outer(phi, phi), np.diag(table.ravel()))
        # one changed entry, or a complex diagonal entry, leaves the structure
        for i, j, delta in ((1, 2, 1e-300), (0, w.n + 1, 1j * 1e-300), (3, 3, 1j)):
            moved = op.copy()
            moved[i, j] += delta
            moved[j, i] = np.conj(moved[i, j]) if i != j else moved[i, j]
            assert _phi_structure(moved, w.n) is None, (i, j)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_starts_for_fewer_restarts_are_a_prefix(n):
    for seed in (0, 1, 2**40):
        full = _seesaw_starts(n, 64, seed)
        assert full.tobytes() == ref_starts(n, 64, seed).tobytes()
        for k in (1, 2, 7, 63):
            assert _seesaw_starts(n, k, seed).tobytes() == full[:k].tobytes(), (n, seed, k)


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


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_realigned_contraction_matches_former_einsums(name):
    w = WITNESSES[name]
    rng = np.random.default_rng(17)
    v = rng.standard_normal((9, w.n)) + 1j * rng.standard_normal((9, w.n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    bound = 1e-15 * np.max(np.abs(w.operator))
    for got, former in zip(realigned_halves(w), former_halves(w)):
        assert np.max(np.abs(got(v) - former(v))) <= bound, name


def test_block_positivity_stays_within_ftol_of_former_loop():
    members = list(rotation_members()) + list(WITNESSES.values())
    for k, w in enumerate(members):
        former, _ = ref_block_positivity_min(w, 16, k % 4, halves=former_halves)
        assert abs(block_positivity_min(w, restarts=16, seed=k % 4) - former) <= SEESAW_FTOL, k


def test_nan_entry_is_named_in_the_error():
    op = WitnessParams(1.0, 0.75, 0.5, 0.75).witness.operator.copy()
    op[3, 5] = np.nan
    # LAPACK used to fail with "Eigenvalues did not converge"
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        block_positivity_min(Witness(n=4, operator=op), restarts=2, seed=0)


def test_non_hermitian_operator_is_named_in_the_error():
    # eigh used to read the lower triangle alone and return -0.0113
    op = WitnessParams(1.0, 0.75, 0.5, 0.75).witness.operator + 1j * np.triu(np.ones((16, 16)), 1)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max \|m - m\^dagger\| = 1\.000e\+00$"):
        block_positivity_min(Witness(n=4, operator=op), restarts=2, seed=0)


def test_operator_shape_must_match_n():
    # numpy used to fail with "cannot reshape array of size 256"
    w = Witness(n=3, operator=WitnessParams(1.0, 0.75, 0.5, 0.75).witness.operator)
    with pytest.raises(ValueError, match=r"^witness operator must have shape \(9, 9\) for n = 3, got \(16, 16\)$"):
        block_positivity_min(w, restarts=2, seed=0)


@pytest.mark.parametrize("x", [0.7, -2.5, 0.0])
def test_one_dimensional_witness_is_its_own_floor(x):
    # n = 1 has no <00|W|11> entry to read: _phi_structure must decline, not index past the operator
    w = Witness(n=1, operator=np.array([[x]]))
    assert _phi_structure(np.asarray(w.operator, dtype=complex), 1) is None
    assert block_positivity_min(w) == x
