"""The round-robin Jacobi solver against the cyclic-by-rows loop it replaced.

`hermitian_eig` rotates the n/2 disjoint pairs of each round-robin round
together. The reference below is the former solver: one rotation at a time,
pairs in row order. Both run Jacobi to the same threshold, but in a different
order and with different rounding, so spectra are compared within
1e-14 times the Frobenius norm of the input, not bit for bit.
"""
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones.certify import _decomposition_parts, probe_state
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.linalg import JACOBI_MAX_SWEEPS, JACOBI_TOL, _round_robin, hermitian_eig, partial_transpose

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
        _, p, q = _decomposition_parts(2.0 - 2.0 * b, b, 1.0)
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
