"""The see-saw floor: the lattice floor on family witnesses, the batched see-saw elsewhere.

`block_positivity_min` takes one of two paths. A witness diag - s|Phi><Phi|,
which every family member is, gets the lattice floor: each point p of a
fixed simplex lattice, and of a few spread points, is solved for its best
second factor by one secular half-step, all in one batch, and the best
lattice points and the spread points are polished by the weight see-saw. It
reads neither restarts nor seed. Any other witness runs every
restart in one batch, one column per running restart: each half-step
contracts the running factors' outer products with the realigned witness,
whose row (k, l) and column (i, j) hold <ik|W|jl>, in one stacked matmul of
shape (B, 1, n^2) x (n^2, n^2), one BLAS call of the same shape per restart
whatever the batch size B, followed by a stacked eigh.

The reference below runs one restart at a time from the same starts (one
seeded draw, row r for restart r), with the contraction on a one-row batch
and eigh for every witness. On the eigh path each restart keeps its own
stopping rule, so the two agree bit for bit, including restarts that run to
the iteration cap; two properties carry that agreement and are tested on
their own: a stacked matmul equals its rows contracted one at a time, and
the first k starts do not depend on the restart count. On the lattice path
the floor must not lie above the reference by more than SEESAW_FTOL, and the
weights it returns must attain its value. The secular half-step is checked
against eigh, and the n = 3 floor against the Cho-Kye-Lee criterion. Polish
columns that a Newton certificate retires are run on by a see-saw with eigh,
which must not pass their certified limits, the certificate must match its
untrimmed former self (`ref_certified_limits`) bit for bit, and members near
the vertex limit (2, 1, 0, 0) must keep the face-basin floors they had before.

The three-operand einsums the see-saw used before the realignment stay here
as a second reference, with eigh throughout: the contraction must match them
to rounding. The corpus holds a random complex Hermitian witness, an n = 3
witness, on which a swapped transpose cannot pass as it can on the real,
symmetric family witnesses, and n = 8 and n = 9 witnesses. A family witness
conjugated by local diagonal phases keeps its see-saw but leaves the
diag - s|Phi><Phi| form, so it runs the eigh path on a family-like witness.
"""
import math
import re

import numpy as np
import pytest

from ewcones import certify
from ewcones.certify import (
    SEESAW_FTOL,
    SEESAW_MAX_ITER,
    _NEWTON_STEPS,
    _NEWTON_TOL,
    _certified_limits,
    _hessian_map,
    _lattice_floor,
    _phi_structure,
    _seesaw_starts,
    _secular_half_step,
    _simplex_points,
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
    """The per-restart loop with eigh; also returns how many restarts hit the iteration cap."""
    first, second = halves(w)
    starts = ref_starts(w.n, restarts, seed)
    best = math.inf
    capped = 0
    for r in range(restarts):
        psi = starts[r : r + 1]
        value = math.inf
        for _ in range(SEESAW_MAX_ITER):
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


def attained(w, p, q):
    """<x y|W|x y> for unit x, y with weights |x|^2 = p, |y|^2 = q and the phases aligned."""
    s, table = _phi_structure(w.operator, w.n)
    return float(p @ table @ q - s * np.sqrt(p * q).sum() ** 2)


def check_lattice_floor(w, reference):
    """The floor is at most reference + SEESAW_FTOL, attained by its weights, and not below lambda_min(W)."""
    value, p, q = _lattice_floor(*_phi_structure(w.operator, w.n))
    assert value <= reference + SEESAW_FTOL, (value, reference)
    assert abs(attained(w, p, q) - value) <= 1e-12, (value, attained(w, p, q))
    assert value >= np.linalg.eigvalsh(w.operator)[0] - 1e-12


def same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_hermitian_witness(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return Witness(n=n, operator=(m + m.conj().T) / 2)


def n3_circulant_witness(a, b, c):
    """diag(circulant(a, b, c)) - |Phi><Phi| on C^3 x C^3, with a on the |ii> diagonal."""
    return Witness(n=3, operator=_ii_operator(_circulant([a, b, c]).ravel(), _circulant([a, -1.0, -1.0])))


def n3_witness(alpha):
    """The n = 3 circulant witness of the planar rotation by alpha."""
    p = n3_abc(alpha)
    return n3_circulant_witness(p.a, p.b, p.c)


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


def diagonal_minus_phi(table):
    """diag(table.ravel()) - |Phi><Phi| on C^n x C^n, n the table's side."""
    phi = np.eye(len(table)).ravel()
    return Witness(n=len(table), operator=np.diag(table.ravel()) - np.outer(phi, phi))


LARGE = {f"n{n}": diagonal_minus_phi(np.random.default_rng(8).uniform(0.0, 2.0, (n, n))) for n in (8, 9)}


def local_phases(w):
    """(U x V) W (U x V)^dagger for fixed diagonal phases U and V: the same see-saw, off the phi form."""
    k = np.arange(w.n)
    uv = np.kron(np.exp(0.7j * k), np.exp(0.3j * k**2))
    return Witness(n=w.n, operator=uv[:, None] * w.operator * uv.conj())


PHASED = local_phases(WITNESSES["1110"])


@pytest.mark.parametrize("restarts", [1, 4, 16, 64])
def test_batched_seesaw_matches_restart_loop(restarts):
    members = list(rotation_members()) + list(WITNESSES.values()) + list(LARGE.values()) + [PHASED]
    for k, w in enumerate(members):
        seed = k % 4
        got = block_positivity_min(w, restarts=restarts, seed=seed)
        expected = ref_block_positivity_min(w, restarts, seed)[0]
        if _phi_structure(w.operator, w.n) is None:
            assert same_bits(got, expected), (k, restarts, seed)
        else:
            assert got <= expected + SEESAW_FTOL, (k, restarts, seed)


def test_batched_seesaw_matches_loop_at_iteration_cap():
    # (1, 1, 1, 0) has a flat minimum, so some seeded restarts run to the cap:
    # on the eigh path its phased twin must still match the loop bit for
    # bit, and the lattice floor must reach the capped loop's value
    for restarts, seed in ((16, 1), (1, 25)):
        for w in (WITNESSES["1110"], PHASED):
            expected, capped = ref_block_positivity_min(w, restarts, seed)
            assert capped > 0, f"no restart of (1,1,1,0), seed {seed} reaches the iteration cap"
            got = block_positivity_min(w, restarts=restarts, seed=seed)
            if w is PHASED:
                assert same_bits(got, expected), (restarts, seed)
            else:
                assert got <= expected + SEESAW_FTOL, (restarts, seed)


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


def weight_columns(x, batch):
    """|x|^2 as batch equal columns: the numpy half-step takes at least two."""
    return np.ascontiguousarray(np.repeat((x.conj() * x).real[:, None], batch, axis=1))


@pytest.mark.parametrize("s", [1.0, 0.25])
def test_secular_half_step_matches_eigh(s):
    # bounds: the eigenvalue within 1e-14 of eigvalsh; the weights within
    # 1e-14 max(1, 1/gap) of |v|^2 for eigh's bottom eigenvector v, with gap
    # the distance to the next eigenvalue; the eigenvector they give with the
    # phases of z, residual max|M v - lambda v| within 4e-15; the weights'
    # sum within 1e-15 of 1. From a cold start and from a bound some unit
    # vector attains (at most 2.7e-15, 5.8e-15 at gap-scaled 1.9e-15,
    # 7.1e-16 and 3.4e-16 here)
    rng = np.random.default_rng(43)
    for k, (table, x) in enumerate(secular_corpus()):
        m = half_step_matrix(table, s, x)
        u = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        u /= np.linalg.norm(u)
        bounds = np.array([math.inf, float((u.conj() @ m @ u).real)])
        values, weights = _secular_half_step(table, s, weight_columns(x, 2), bounds)
        vals, vecs = np.linalg.eigh(m)
        gap = vals[1] - vals[0]
        assert gap > 0, k  # every bottom eigenvalue of the corpus is simple
        phase = np.where(x == 0, 1.0, x.conj() / np.where(x == 0, 1.0, np.abs(x)))
        for c, bound in enumerate(bounds):
            value, wc = values[c], weights[:, c]
            assert abs(value - vals[0]) <= 1e-14, (k, bound)
            assert np.max(np.abs(wc - np.abs(vecs[:, 0]) ** 2)) <= 1e-14 * max(1.0, 1.0 / gap), (k, bound)
            vec = np.sqrt(wc) * phase
            assert np.max(np.abs(m @ vec - value * vec)) <= 4e-15, (k, bound)
            assert abs(wc.sum() - 1.0) <= 1e-15, (k, bound)


def test_secular_half_step_takes_both_deflation_branches():
    cases = secular_corpus()[200:]
    cold = np.full(2, math.inf)
    for s in (1.0, 0.25):
        kept, root = (_secular_half_step(t, s, weight_columns(x, 2), cold) for t, x in cases[:2])
        assert kept[0][0] == pytest.approx(0.1, abs=1e-15) and kept[1][:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert root[0][0] < 2.9 and root[1][0, 0] == 0.0


def test_deflation_next_to_a_near_tie_does_not_overflow():
    # the see-saw reaches a subnormal weight, whose entry of e is 5.3e-309
    # above a bare entry 0: the deflation test divided a weight by that gap,
    # which overflowed with a RuntimeWarning (an error here); the term is
    # inf, and the root stays
    w = diagonal_minus_phi(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
    assert block_positivity_min(w) == -1.0
    check_lattice_floor(w, -1.0)


def test_spread_points_reach_a_narrow_basin_next_to_a_face():
    # every lattice point of (1.8, 1.2, 0, 0) gives 0 or more, and the see-saw
    # from the best of them stays at 0: the minimum, -0.0039436 at
    # p = (0, 0.021, 0.131, 0.848), is reached from the spread points only
    w = WitnessParams(1.8, 1.2, 0.0, 0.0).witness
    s, table = _phi_structure(w.operator, 4)
    lattice = np.ascontiguousarray(_simplex_points(4)[:, :-8])
    assert _secular_half_step(table, s, lattice, np.full(lattice.shape[1], math.inf))[0].min() >= 0.0
    value, p, q = _lattice_floor(s, table)
    assert value <= -0.0039435 and abs(attained(w, p, q) - value) <= 1e-12


# Floors that the polish reaches near the vertex limit (2 - t, 1 + t, 0, 0)
# and its rotation (2 - t, 0, 0, 1 + t), recorded when creeping columns were
# retired at a predicted 20 iterations. Their minima lie in narrow face basins
# at weights of order t and t^2; a rule that stops a creeping column before
# it reaches its face basin, or moves it onto the Newton point next to it,
# loses them to the uniform minimum 0.
VERTEX_FLOORS = {
    (4.266e-3, 1): -7.632559971285172e-08,
    (4.266e-3, 3): -7.632559971287205e-08,
    (2.07e-3, 1): -8.796692761787648e-09,
    (2.07e-3, 3): -8.79669276178426e-09,
    (2e-3, 1): -7.936329450844643e-09,
    (2e-3, 3): -7.936329450849725e-09,
    (1.1e-3, 1): -1.3251602082511945e-09,
    (1.1e-3, 3): -1.325160208249924e-09,
}


def vertex_member(t, side):
    params = [2.0 - t, 0.0, 0.0, 0.0]
    params[side] = 1.0 + t
    return WitnessParams(*params)


@pytest.mark.parametrize("t, side", sorted(VERTEX_FLOORS))
def test_vertex_limit_keeps_its_face_basin(t, side):
    check_lattice_floor(vertex_member(t, side).witness, VERTEX_FLOORS[t, side])


def seesaw_floor_members():
    """The members of perfbench's seesaw-floor corpus: 28 rotation members of design seed 2012 and the reduction witness."""
    design = np.random.default_rng(2012)
    n = 28
    strata = (np.arange(n) + design.uniform(0.0, 1.0, n)) / n
    alphas = 2 * np.pi * strata[design.permutation(n)]
    gammas = 2 * np.pi * strata[design.permutation(n)]
    betas = np.arccos(1.0 - 2.0 * strata[design.permutation(n)])
    members = [abcd_from_euler(alphas[k], betas[k], gammas[k], parity=("proper", "improper")[k % 2]) for k in range(n)]
    return members + [WitnessParams(0.0, 1.0, 1.0, 1.0)]


HARD_MEMBERS = [
    WitnessParams(1.8, 1.2, 0.0, 0.0),
    WitnessParams(1.9928571428571429, 1.0071428571428571, 0.0, 0.0),
    WitnessParams(1.9714, 1.0286, 0.0, 0.0),
    WitnessParams(1.0147, 0.0, 1.9853, 0.0),
]


def eigh_weight_seesaw(tables, s, q, iterations):
    """The plain weight see-saw by eigh, one table and s per column, from weights q; the last values."""
    diagonal = np.arange(q.shape[1])
    for _ in range(iterations):
        for t in (tables, tables.transpose(0, 2, 1)):
            root = np.sqrt(q)
            m = -s[:, None, None] * root[:, :, None] * root[:, None, :]
            m[:, diagonal, diagonal] += (t @ q[:, :, None])[:, :, 0]
            values, vectors = np.linalg.eigh(m)
            q = vectors[:, :, 0] ** 2
    return values[:, 0]


def test_retired_columns_never_pass_their_certified_limit(monkeypatch):
    # every column the certificate retires, run on by the plain see-saw
    # (eigh, not the secular half-step) for 5,000 iterations, must not end
    # below its certified limit by more than SEESAW_FTOL
    retired = []

    def recording(s, table, hessian, p, q, values):
        limit, p_limit, q_limit = _certified_limits(s, table, hessian, p, q, values)
        for j in np.flatnonzero(np.isfinite(limit)):
            retired.append((s, table, q[:, j], limit[j]))
        return limit, p_limit, q_limit

    monkeypatch.setattr(certify, "_certified_limits", recording)
    for params in seesaw_floor_members() + HARD_MEMBERS:
        w = params.witness
        _lattice_floor(*_phi_structure(w.operator, w.n))
    assert len(retired) >= 100, len(retired)
    s, tables, q, limits = (np.array(column) for column in zip(*retired))
    ends = eigh_weight_seesaw(tables, s, q, 5000)
    assert np.all(ends >= limits - SEESAW_FTOL), (ends - limits).min()


def ref_certified_limits(s, table, p, q, values):
    """The certificate as it was before its trims: the Hessian map per call, the masks and the inertia on every column."""
    n, m = p.shape
    size = 2 * n
    hessian = _hessian_map(s, table)
    halves = np.repeat(np.eye(2), n, axis=0)
    w = np.sqrt(np.concatenate([p, q]).T)
    ell = np.repeat(values, 2).reshape(m, 2)
    free = np.ones((m, size + 2), dtype=bool)
    free[:, :size] = w > 0
    keep, pin = free[:, :, None] & free[:, None, :], ~free[:, :, None] * np.eye(size + 2)
    k = np.zeros((m, size + 2, size + 2))
    f = np.empty((m, size + 2, 1))
    diagonal = np.arange(size)
    before = after = np.full(m, math.inf)
    for _ in range(_NEWTON_STEPS):
        h = ((w[:, :, None] * w[:, None, :]).reshape(m, -1) @ hessian).reshape(m, size, size)
        lam = ell @ halves.T
        f[:, :size] = h @ w[:, :, None] / 3.0 - (lam * w)[:, :, None]
        f[:, size:, 0] = 0.5 - 0.5 * (w * w) @ halves
        k[:, :size, :size] = h
        k[:, diagonal, diagonal] -= lam
        k[:, size:, :size] = -(w[:, None, :] * halves.T)
        k[:, :size, size:] = k[:, size:, :size].transpose(0, 2, 1)
        k *= keep
        k += pin
        f *= free[:, :, None]
        try:
            step = np.linalg.solve(k, f)[:, :, 0]
        except np.linalg.LinAlgError:
            return np.full(m, math.inf), p, q
        w = w - step[:, :size]
        ell = ell - step[:, size:]
        before, after = after, np.abs(step[:, :size]).max(axis=1)
        if after.max() <= _NEWTON_TOL:
            break
    certified = (after <= _NEWTON_TOL) & (before <= math.sqrt(_NEWTON_TOL)) & (ell[:, 0] <= values)
    certified &= np.count_nonzero(np.linalg.eigvalsh(k) < 0.0, axis=1) == 2
    weights = w[:, :n].T ** 2
    weights /= weights.sum(axis=0)
    limit, q_limit = _secular_half_step(table, s, weights, np.full(m, math.inf))
    certified &= limit >= ell[:, 0] - SEESAW_FTOL
    return np.where(certified, limit, math.inf), weights, q_limit


def recorded_certificate_calls(monkeypatch, members):
    """The arguments of every certificate call the floors of members make."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _certified_limits(*args)

    monkeypatch.setattr(certify, "_certified_limits", recording)
    for params in members:
        w = params.witness
        _lattice_floor(*_phi_structure(w.operator, w.n))
    monkeypatch.undo()
    return calls


def near_uniform_calls():
    """Certificate inputs next to the uniform weights, a critical point of G and a saddle for about half the members.

    Their steps converge there and the inertia rejects the saddles. Every
    other call zeroes the first weight of p while q's stays positive, which
    only the support masks keep at 0.
    """
    rng = np.random.default_rng(5)
    calls = []
    for k, x in enumerate(rng.dirichlet((1.0, 1.0, 1.0, 1.0), 20) * 3.0):
        w = WitnessParams(*x).witness
        s, table = _phi_structure(w.operator, w.n)
        p, q = (np.abs(0.25 + 1e-3 * rng.standard_normal((4, 6))) for _ in range(2))
        p[0] *= k % 2
        p /= p.sum(axis=0)
        q /= q.sum(axis=0)
        values = np.einsum("ij,ik,kj->j", p, table, q) - s * np.sqrt(p * q).sum(axis=0) ** 2
        calls.append((s, table, _hessian_map(s, table), p, q, values))
    return calls


def test_trimmed_certificate_matches_its_reference_bit_for_bit(monkeypatch):
    # one Hessian map per floor, no support masks on full support and the
    # inertia on converged columns only change no output bit, on the calls of
    # the benchmark corpus (all on full support), of the vertex members, whose
    # face-basin columns have zero weights and take the masks, and next to
    # the uniform weights
    vertices = [vertex_member(t, side) for t, side in sorted(VERTEX_FLOORS)]
    calls = recorded_certificate_calls(monkeypatch, seesaw_floor_members() + HARD_MEMBERS + vertices)
    masked = [args for args in calls if (args[3] == 0.0).any() or (args[4] == 0.0).any()]
    assert len(calls) >= 20 and masked, (len(calls), len(masked))
    assert any(np.isfinite(_certified_limits(*args)[0]).any() for args in masked)
    for s, table, hessian, p, q, values in calls + near_uniform_calls():
        assert hessian.tobytes() == _hessian_map(s, table).tobytes()
        got = _certified_limits(s, table, hessian, p, q, values)
        for a, b in zip(got, ref_certified_limits(s, table, p, q, values)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_flat_minimum_makes_a_bounded_number_of_certificate_attempts(monkeypatch):
    # the minimum 0 of (1, 1, 1, 0) is flat, so three columns creep on to the
    # iteration cap; the checks that certify none of them come twice as late
    # each time, at iterations 20, 40, 80, 160 and 320 after the first at 10
    calls = recorded_certificate_calls(monkeypatch, [WitnessParams(1.0, 1.0, 1.0, 0.0)])
    w = WitnessParams(1.0, 1.0, 1.0, 0.0).witness
    value = _lattice_floor(*_phi_structure(w.operator, w.n))[0]
    assert len(calls) <= 6 and abs(value) <= 1e-12, (len(calls), value)


def cho_kye_lee_margin(a, b, c):
    """Positive inside the region where n3_circulant_witness(a, b, c) is block positive, negative outside."""
    return min(a + b + c - 2.0, b * c - (1.0 - a) ** 2 if a <= 1.0 else math.inf)


def test_n3_floor_follows_the_cho_kye_lee_criterion():
    # for a, b, c >= 0 the witness is block positive iff a + b + c >= 2 and,
    # when a <= 1, bc >= (1 - a)^2 (Cho, Kye and Lee, Linear Algebra Appl.
    # 171, 1992). On this grid of step 1/4 a nonzero margin is at least 1/16;
    # the triples within 1e-3 of the boundary, margin 0, are left out. Swapping
    # the two factors turns (a, b, c) into (a, c, b), so b <= c suffices
    grid = np.linspace(0.0, 2.0, 9)
    checked = {True: 0, False: 0}
    for a in grid[:7]:
        for i, b in enumerate(grid):
            for c in grid[i:]:
                margin = cho_kye_lee_margin(a, b, c)
                if abs(margin) < 1e-3:
                    continue
                value = block_positivity_min(n3_circulant_witness(a, b, c))
                if margin > 0:
                    assert value >= -1e-12, (a, b, c, value)
                else:
                    assert value < -1e-6, (a, b, c, value)
                checked[margin > 0] += 1
    assert min(checked.values()) >= 50, checked


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
    # on the eigh path restart r's value does not depend on the batch size,
    # so no slack is needed; the lattice floor reads no restart at all
    for w, seed in ((PHASED, 3), (WITNESSES["random_hermitian"], 0)):
        values = [block_positivity_min(w, restarts=r, seed=seed) for r in range(1, 17)]
        assert all(later <= earlier for earlier, later in zip(values, values[1:])), w.n


@pytest.mark.parametrize("name", ["1110", "n3", "n8", "n9"])
def test_lattice_floor_reads_neither_restarts_nor_seed(name):
    w = {**WITNESSES, **LARGE}[name]
    values = {block_positivity_min(w, restarts=r, seed=seed) for r, seed in ((1, 0), (64, 3), (5, 2**40))}
    assert values == {_lattice_floor(*_phi_structure(w.operator, w.n))[0]}, values


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16])
def test_simplex_points_are_cached_read_only_and_on_the_simplex(n):
    points = _simplex_points(n)
    assert _simplex_points(n) is points and not points.flags.writeable
    assert points.shape[0] == n and points.shape[1] <= 1001 + 8 and points.min() >= 0.0
    assert np.max(np.abs(points.sum(axis=0) - 1.0)) <= 1e-15
    lattice, spread = points[:, :-8], points[:, -8:]
    # every vertex and the uniform weights are lattice points, and none repeats
    for point in [*np.eye(n), np.full(n, 1.0 / n)]:
        assert np.count_nonzero(np.max(np.abs(lattice - point[:, None]), axis=0) <= 1e-15) == 1, (n, point)
    # the spread points are interior, with no two coordinates equal
    assert spread.min() > 0.0 and all(len(set(col)) == n for col in spread.T.tolist())
    if n == 4:
        assert lattice.shape[1] == 969 and np.array_equal(np.round(lattice * 16) / 16, lattice)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_is_named_in_the_error(seed):
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        block_positivity_min(WITNESSES["1110"], restarts=2, seed=seed)


@pytest.mark.parametrize("restarts", [0, -2])
def test_restarts_below_one_are_named_in_the_error(restarts):
    # 0 restarts used to return inf, and -2 numpy's bare "negative dimensions"
    with pytest.raises(ValueError, match=f"^restarts must be at least 1, got {restarts}$"):
        block_positivity_min(WITNESSES["1110"], restarts=restarts, seed=0)


@pytest.mark.parametrize("path", ["lattice", "eigh"])
@pytest.mark.parametrize(
    "name, value", [("restarts", math.nan), ("restarts", 2.5), ("restarts", "3"), ("seed", 1.5), ("seed", math.nan)]
)
def test_non_integer_restarts_and_seed_are_named_in_the_error(path, name, value):
    # the lattice path read neither and returned a floor; the eigh path
    # failed in numpy with messages that named neither argument
    w = {"lattice": WITNESSES["1110"], "eigh": PHASED}[path]
    arguments = {"restarts": 2, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        block_positivity_min(w, **arguments)


@pytest.mark.parametrize("path", ["lattice", "eigh"])
def test_numpy_integer_restarts_and_seed_are_accepted(path):
    w = {"lattice": WITNESSES["1110"], "eigh": PHASED}[path]
    got = block_positivity_min(w, restarts=np.int64(4), seed=np.uint8(2))
    assert same_bits(got, block_positivity_min(w, restarts=4, seed=2))


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
    members = list(rotation_members()) + list(WITNESSES.values()) + list(LARGE.values())
    for k, w in enumerate(members):
        former, _ = ref_block_positivity_min(w, 16, k % 4, halves=former_halves)
        if _phi_structure(w.operator, w.n) is None:
            assert abs(block_positivity_min(w, restarts=16, seed=k % 4) - former) <= SEESAW_FTOL, k
        else:
            check_lattice_floor(w, former)


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
    # the see-saw's reshape used to fail with numpy's "cannot reshape array of
    # size 256"; the Witness now rejects the operator when it is made
    op = WitnessParams(1.0, 0.75, 0.5, 0.75).witness.operator
    with pytest.raises(ValueError, match=r"^witness operator must have shape \(9, 9\) for n = 3, got \(16, 16\)$"):
        Witness(n=3, operator=op)


@pytest.mark.parametrize("x", [0.7, -2.5, 0.0])
def test_one_dimensional_witness_is_its_own_floor(x):
    # n = 1 has no <00|W|11> entry to read: _phi_structure must decline, not index past the operator
    w = Witness(n=1, operator=np.array([[x]]))
    assert _phi_structure(np.asarray(w.operator, dtype=complex), 1) is None
    assert block_positivity_min(w) == x


def test_nested_list_operator_is_read_as_an_array():
    # Witness stores its operator unconverted; reading .shape first used to raise AttributeError
    assert block_positivity_min(Witness(n=1, operator=[[0.7]])) == 0.7
    w = WITNESSES["1110"]
    listed = Witness(n=4, operator=w.operator.tolist())
    assert same_bits(block_positivity_min(listed, restarts=4, seed=2), block_positivity_min(w, restarts=4, seed=2))
