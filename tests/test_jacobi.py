"""The round-robin Jacobi solver against the solvers it replaced.

`hermitian_eig` rotates the n/2 disjoint pairs of each round-robin round
together. The first reference below is the cyclic-by-rows solver: one
rotation at a time, pairs in row order. Both run Jacobi to the same
threshold, but in a different order and with different rounding, so spectra
are compared within 1e-14 times the Frobenius norm of the input, not bit for
bit.

The second reference is the round-robin solver before it split block-sparse
inputs into the connected components of their nonzero pattern. It sweeps the
whole matrix, where a rotation between two blocks is dead and one inside a
block leaves the other blocks' entries alone, so on the package's operators
the split must agree with it bit for bit.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ewcones import linalg
from ewcones.certify import _decomposition_parts, probe_state
from ewcones.cones import bd_curve
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.linalg import (
    JACOBI_MAX_SWEEPS,
    JACOBI_TOL,
    _off_diagonal_mass,
    _require_hermitian,
    _round_robin,
    _scaled_to_unit,
    hermitian_eig,
    partial_transpose,
)

SPECTRUM_TOL = 1e-14


def ref_hermitian_eig(m, tol=JACOBI_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """The former cyclic-by-rows solver: eigenvalues and vectors, ascending."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = np.linalg.norm(a)
    if n <= 1 or scale == 0.0:
        return np.diag(a).real.copy(), v
    threshold = tol * scale
    tiny = 1e-300

    def off_mass():
        return np.linalg.norm(a - np.diag(np.diag(a)))

    for _ in range(max_sweeps):
        if off_mass() <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= tiny:
                    continue
                phase = apq / r
                theta = 0.5 * np.arctan2(2.0 * r, (a[p, p] - a[q, q]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                u_pp, u_pq = c, -s * phase
                u_qp, u_qq = s / phase, c
                col_p = a[:, p] * u_pp + a[:, q] * u_qp
                col_q = a[:, p] * u_pq + a[:, q] * u_qq
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = np.conj(u_pp) * a[p, :] + np.conj(u_qp) * a[q, :]
                row_q = np.conj(u_pq) * a[p, :] + np.conj(u_qq) * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                col_p = v[:, p] * u_pp + v[:, q] * u_qp
                col_q = v[:, p] * u_pq + v[:, q] * u_qq
                v[:, p] = col_p
                v[:, q] = col_q
    if off_mass() > threshold:
        raise np.linalg.LinAlgError(f"Jacobi did not converge in {max_sweeps} sweeps")
    values = np.diag(a).real
    order = np.argsort(values, kind="stable")
    return values[order].copy(), v[:, order].copy()


def dense_states(seed, count):
    """Seeded dense 16 x 16 density matrices of full rank."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2
        yield rho / np.trace(rho).real


def family_operators():
    """W for rotation members, P and Q on the b = d line, probes and their transposes."""
    rng = np.random.default_rng(2012)
    for k in range(6):
        parity = ("proper", "improper")[k % 2]
        params = abcd_from_euler(*rng.uniform(0.0, 2.0 * np.pi, 3), parity=parity)
        yield f"W-{parity}-{k}", witness_from_params(params).operator
    for b in (0.5, 0.75, 1.0):
        _, p, q, _ = _decomposition_parts(2.0 - 2.0 * b, b, 1.0)
        yield f"P-b{b}", p
        yield f"Q-b{b}", q
    for eps in (0.5, 1.0, 2.0, 2.0**20):
        state = probe_state(eps).state
        yield f"probe-{eps}", state
        yield f"probe-pt-{eps}", partial_transpose(state, 4, 4)
    yield "W-reduction", witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0)).operator


def assert_spectra_agree(m):
    values = hermitian_eig(m).values
    ref_values, _ = ref_hermitian_eig(m)
    bound = SPECTRUM_TOL * np.linalg.norm(m)
    assert np.max(np.abs(values - ref_values)) <= bound
    assert np.all(np.diff(values) >= 0)


@pytest.mark.parametrize("n", range(2, 18))
def test_schedule_visits_every_pair_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for p, q, partner, pq, qp in rounds:
        assert len(p) == n // 2
        assert np.all(p < q)
        # disjoint pairs: no index appears twice in a round
        assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
        assert np.array_equal(partner[p], q) and np.array_equal(partner[q], p)
        assert np.array_equal(np.sort(partner), np.arange(n))
        assert np.array_equal(pq, p * n + q) and np.array_equal(qp, q * n + p)
        seen.extend(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == list(itertools.combinations(range(n), 2))
    assert _round_robin(n) is rounds


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_sizes_match_lapack(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2
        assert_allclose(hermitian_eig(m).values, np.linalg.eigvalsh(m), atol=1e-13)
        assert_spectra_agree(m)


def test_dense_states_agree_with_reference():
    for rho in dense_states(16, 8):
        assert_spectra_agree(rho)


def test_dense_spectra_no_further_from_lapack_than_reference():
    # the rotated diagonal is set to each pair's 2 x 2 eigenvalues; taking it
    # from the two-sided product instead drifts further from eigvalsh
    err = ref_err = 0.0
    for rho in dense_states(16, 32):
        lapack = np.linalg.eigvalsh(rho)
        err = max(err, np.max(np.abs(hermitian_eig(rho).values - lapack)))
        ref_err = max(ref_err, np.max(np.abs(ref_hermitian_eig(rho)[0] - lapack)))
    assert err <= ref_err


FAMILY = list(family_operators())


@pytest.mark.parametrize("m", [m for _, m in FAMILY], ids=[name for name, _ in FAMILY])
def test_family_operators_agree_with_reference(m):
    assert_spectra_agree(m)


def test_dead_pairs_keep_identity():
    # only (0, 3) is coupled; every other pair is dead in every round, and a
    # rotation from arctan2(0, a_pp - a_qq) would swap pairs with a_pp < a_qq
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m[0, 3] = 0.5 + 0.25j
    m[3, 0] = np.conj(m[0, 3])
    values = hermitian_eig(m).values
    assert_allclose(values, np.linalg.eigvalsh(m), atol=1e-14)
    for value in (2.0, 3.0):
        k = int(np.argmin(np.abs(values - value)))
        assert values[k] == value


def whole_matrix_hermitian_eig(m):
    """The round-robin solver before the block split: whole-matrix sweeps only."""
    a = _require_hermitian(m)
    n = a.shape[0]
    if n <= 1:
        return np.diag(a).real.copy()
    a, exponent = _scaled_to_unit(a)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    threshold = linalg.JACOBI_TOL * scale
    tiny = 1e-300

    def off_mass(a):
        return float(np.linalg.norm(a - np.diag(np.diag(a))))

    for _ in range(linalg.JACOBI_MAX_SWEEPS):
        if off_mass(a) <= threshold:
            break
        for p, q, partner, pq, qp in _round_robin(n):
            apq = a.ravel().take(pq)
            r = np.abs(apq)
            live = r > tiny
            count = np.count_nonzero(live)
            if count == 0:
                continue
            if count < p.size:
                p, q, apq, r = p[live], q[live], apq[live], r[live]
            d = a.diagonal().real.copy()
            d_p = d[p]
            d_q = d[q]
            diff = d_p - d_q
            t = np.copysign(2.0 * r, diff) / (np.abs(diff) + np.hypot(diff, 2.0 * r))
            c = 1.0 / np.hypot(1.0, t)
            u_pq = -(t * c) * (apq / r)
            shift = t * r
            d[p] = d_p + shift
            d[q] = d_q - shift
            cs = np.ones(n)
            cs[p] = c
            cs[q] = c
            us = np.zeros(n, dtype=complex)
            us[p] = -np.conj(u_pq)
            us[q] = u_pq
            a = a * cs + a.take(partner, axis=1) * us
            a = cs[:, None] * a + np.conj(us)[:, None] * a.take(partner, axis=0)
            flat = a.ravel()
            flat[pq] = 0.0
            flat[qp] = 0.0
            flat[:: n + 1] = d
    if off_mass(a) > threshold:
        raise np.linalg.LinAlgError(f"Jacobi did not converge in {linalg.JACOBI_MAX_SWEEPS} sweeps")
    with np.errstate(over="ignore"):
        values = np.ldexp(np.diag(a).real, exponent)
    return np.sort(values, kind="stable")


def assert_same_bits(m):
    values = hermitian_eig(m).values
    expected = whole_matrix_hermitian_eig(m)
    assert values.dtype == expected.dtype and values.tobytes() == expected.tobytes()


def bd_curve_parts():
    for cone in ("I", "II"):
        for params in bd_curve(cone):
            yield from _decomposition_parts(params.a, params.b, params.c)[:3]


@pytest.mark.parametrize("m", [m for _, m in FAMILY], ids=[name for name, _ in FAMILY])
def test_block_split_matches_whole_matrix_sweeps_bitwise(m):
    assert_same_bits(m)


def test_block_split_matches_whole_matrix_sweeps_on_bd_curve_parts():
    parts = list(bd_curve_parts())
    # Q splits into 2 x 2 blocks and P into one 4 x 4 block, so both paths run
    assert len(linalg._components(parts[2] != 0)) == 10
    assert sorted(map(len, linalg._components(parts[1] != 0)))[-2:] == [1, 4]
    for m in parts:
        assert_same_bits(m)


def test_dense_states_take_the_whole_matrix_path_unchanged():
    for rho in dense_states(16, 4):
        assert_same_bits(rho)


@st.composite
def permuted_block_sums(draw):
    """A Hermitian direct sum of blocks of order 1 to 5, each with exact zeros
    and its own scale 2**k, conjugated by a random permutation."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    exponents = draw(st.lists(st.integers(-900, 900), min_size=len(sizes), max_size=len(sizes)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for size, k in zip(sizes, exponents):
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        block = (g + g.conj().T) / 2
        zeros = rng.random((size, size)) < zero_share
        block[zeros | zeros.T] = 0.0
        m[start:start + size, start:start + size] = block * 2.0**k
        start += size
    order = rng.permutation(n)
    return m[np.ix_(order, order)]


@settings(max_examples=150, deadline=None)
@given(permuted_block_sums())
def test_block_split_matches_lapack_on_permuted_direct_sums(m):
    values = hermitian_eig(m).values
    expected = np.linalg.eigvalsh(m)
    norm = float(np.max(np.abs(expected)))  # the spectral norm of m
    assert np.all(np.diff(values) >= 0)
    assert np.max(np.abs(values - expected)) <= 1e-13 * max(1.0, norm)


def test_each_block_converges_to_its_own_norm():
    # the whole matrix's threshold, or a block norm whose squares underflow,
    # would leave this block's eigenvalues at its diagonal
    rng = np.random.default_rng(13)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    block = (g + g.conj().T) / 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    m[1:, 1:] = block * 2.0**-990
    expected = np.sort(np.append(np.linalg.eigvalsh(block) * 2.0**-990, 1.0))
    assert_allclose(hermitian_eig(m).values, expected, rtol=1e-13, atol=0)


def test_weak_coupling_below_dead_pair_cutoff_keeps_the_diagonal():
    # the third index makes the input block-sparse and fixes the scale, so the
    # 2 x 2 step decides: its coupling is below 1e-300, and a rotation would
    # give the pair's eigenvalues -+1e-302 instead of the diagonal's zeros
    m = np.diag([0.0, 0.0, 0.25]).astype(complex)
    m[0, 1] = m[1, 0] = 1e-302
    assert hermitian_eig(m).values.tobytes() == np.array([0.0, 0.0, 0.25]).tobytes()
    assert_same_bits(m)


def test_zero_matrices_give_positive_zeros():
    for m in (np.zeros((4, 4)), np.diag([-0.0, -0.0, -0.0])):
        values = hermitian_eig(m).values
        assert values.tobytes() == np.zeros(len(values)).tobytes()
        assert_same_bits(m)
    # a -0.0 diagonal entry beside a nonzero block keeps the parent's sign
    m = np.diag([-0.0, 1.0, 2.0]).astype(complex)
    m[1, 2] = m[2, 1] = 0.5
    assert_same_bits(m)
    assert math.copysign(1.0, hermitian_eig(m).values[0]) == -1.0


def test_unconverged_block_raises_the_whole_matrix_error(monkeypatch):
    rng = np.random.default_rng(11)
    m = np.zeros((16, 16), dtype=complex)
    for start in (0, 8):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m[start:start + 8, start:start + 8] = (g + g.conj().T) / 2
    order = rng.permutation(16)
    m = m[np.ix_(order, order)]
    assert sorted(map(len, linalg._components(m != 0))) == [8, 8]
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    for solver in (hermitian_eig, whole_matrix_hermitian_eig):
        with pytest.raises(np.linalg.LinAlgError, match="^Jacobi did not converge in 1 sweeps$"):
            solver(m)


def signed_zero_inputs():
    m = np.diag([-0.0, 1.0, -2.0]).astype(complex)
    m[0, 1] = complex(-0.0, 0.5)
    m[1, 0] = complex(-0.0, -0.5)
    m[1, 2] = m[2, 1] = complex(0.0, -0.0)
    yield m
    yield np.full((3, 3), complex(-0.0, -0.0))


@pytest.mark.parametrize(
    "m",
    [*dense_states(5, 3), *(m for _, m in FAMILY), *signed_zero_inputs()],
)
def test_off_diagonal_mass_equals_the_subtracted_form_bitwise(m):
    a = np.asarray(m, dtype=complex)
    old = float(np.linalg.norm(a - np.diag(np.diag(a))))
    assert math.copysign(1.0, old) == math.copysign(1.0, _off_diagonal_mass(a))
    assert _off_diagonal_mass(a) == old
