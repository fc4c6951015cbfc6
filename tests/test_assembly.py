"""Every family operator against its matrix-unit construction.

The package assembles each operator from its main diagonal and its block on
span{|ii>}. The reference implementations below build the same operators
the long way, as sums of Kronecker products of matrix units, and the
assembled arrays must match them bit for bit. The same holds for the closed
Euler forms, written out once per parity, and for the sample clouds, built
row by row. Where an assembly step was rewritten for speed (index tables,
slice-built embeddings, cached sums), the earlier form is kept below as the
reference and the two must agree bit for bit as well.
"""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ewcones import certify, cli, family, linalg, maps, spa
from ewcones.certify import _decomposition_parts, probe_state
from ewcones.cones import (
    AXIS_DIRECTION,
    AXIS_POINT,
    VERTEX_ONE,
    VERTEX_TWO,
    bd_curve,
    sample_cloud,
    special_points,
)
from ewcones.family import (
    WitnessParams,
    abcd_from_euler,
    params_from_witness,
    witness_from_params,
)
from ewcones.gellmann import build_basis, diag_expectations
from ewcones.maps import (
    Witness,
    build_witness,
    embedding_from_euler,
    euler_rotation,
    twirl,
)


def unit(i, j, n=4):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def ref_witness(vals):
    w = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i == j:
                block = np.diag([vals[(k - i) % 4] for k in range(4)]).astype(complex)
            else:
                block = -unit(i, j)
            w += np.kron(unit(i, j), block)
    return w


def ref_build_witness(emb):
    n = emb.n
    mu = diag_expectations(build_basis(n))
    phi = 1.0 / n + (mu @ emb.block @ mu.T) / (n - 1)
    w = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                block = np.diag((n - 1) * phi[i, :]).astype(complex)
            else:
                block = -unit(i, j, n)
            w += np.kron(unit(i, j, n), block)
    return w


def ref_probe(epsilon):
    rho = np.zeros((16, 16), dtype=complex)
    weights = (1.0, float(epsilon), 1.0, 1.0 / float(epsilon))
    for i in range(4):
        for s, w in enumerate(weights):
            j = (i + s) % 4
            rho[4 * i + j, 4 * i + j] += w
    for i in range(4):
        for j in range(4):
            if i != j:
                rho[4 * i + i, 4 * j + j] += 1.0
    return rho


def ref_decomposition_parts(a, b, c):
    p = np.zeros((16, 16), dtype=complex)
    q = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        i1, i2, i3 = (i + 1) % 4, (i + 2) % 4, (i + 3) % 4
        p[4 * i + i, 4 * i + i] += a
        p[4 * i + i, 4 * i1 + i1] -= 1.0 - b
        p[4 * i + i, 4 * i3 + i3] -= 1.0 - b
        p[4 * i + i, 4 * i2 + i2] -= 1.0 - c
        q[4 * i + i1, 4 * i + i1] += b
        q[4 * i + i2, 4 * i + i2] += c
        q[4 * i + i3, 4 * i + i3] += b
        q[4 * i + i1, 4 * i1 + i] -= b
        q[4 * i + i3, 4 * i3 + i] -= b
        q[4 * i + i2, 4 * i2 + i] -= c
    return p, q


def ref_pair_term(i, j):
    sigma = np.zeros((16, 16), dtype=complex)
    for x, y in ((i, j), (j, i), (i, i), (j, j)):
        sigma[4 * x + y, 4 * x + y] += 1.0
    sigma[4 * i + i, 4 * j + j] -= 1.0
    sigma[4 * j + j, 4 * i + i] -= 1.0
    return sigma


def ref_sigma_diag(slacks):
    diag = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for s in range(1, 4):
            diag[4 * i + (i + s) % 4, 4 * i + (i + s) % 4] += slacks[s - 1]
    return diag


S2, S3, S6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)


def ref_abcd_from_euler(alpha, beta, gamma, parity):
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    sg, cg = np.sin(gamma), np.cos(gamma)
    shared = (sa * sg - ca * cb * cg - 3 * ca * cg + 3 * cb * sa * sg - 2 * cb) / 6.0
    if parity == "proper":
        a = (3 + np.cos(alpha + gamma) * (1 + cb) + cb) / 4.0
        b = (
            3
            + shared
            + (3 * cg * sa + 3 * ca * cb * sg + cb * cg * sa + ca * sg) / (2 * S3)
            + (2 / (3 * S2)) * sb * (2 * cg + ca)
            - (2 / S6) * sa * sb
        ) / 4.0
        c = (
            3
            - (2 * ca * cb * cg - 2 * sa * sg + cb) / 3.0
            - (2 / (3 * S2)) * sb * (cg - ca)
            + (2 / S6) * sb * (sg + sa)
            - (cg * sa + ca * cb * sg - cb * cg * sa - ca * sg) / S3
        ) / 4.0
        d = (
            3
            + shared
            - (3 * cb * cg * sa + 3 * ca * sg + cg * sa + ca * cb * sg) / (2 * S3)
            - (2 / (3 * S2)) * sb * (cg + 2 * ca)
            - (2 / S6) * sg * sb
        ) / 4.0
    else:
        a = (3 - np.cos(alpha + gamma) * (1 + cb) - cb) / 4.0
        b = (
            3
            - shared
            - (3 * cg * sa + 3 * ca * cb * sg + cb * cg * sa + ca * sg) / (2 * S3)
            - (2 / (3 * S2)) * sb * (2 * cg + ca)
            + (2 / S6) * sa * sb
        ) / 4.0
        c = (
            3
            + (2 * ca * cb * cg - 2 * sa * sg + cb) / 3.0
            + (2 / (3 * S2)) * sb * (cg - ca)
            - (2 / S6) * sb * (sg + sa)
            + (cg * sa + ca * cb * sg - cb * cg * sa - ca * sg) / S3
        ) / 4.0
        d = (
            3
            - shared
            + (3 * cb * cg * sa + 3 * ca * sg + cg * sa + ca * cb * sg) / (2 * S3)
            + (2 / (3 * S2)) * sb * (cg + 2 * ca)
            + (2 / S6) * sg * sb
        ) / 4.0
    return np.array([float(a), float(b), float(c), float(d)])


def ref_sample_cloud(cone, resolution):
    vertex = VERTEX_ONE if cone == "I" else VERTEX_TWO
    rows = [vertex]
    fractions = np.linspace(0.0, 1.0, resolution)[1:]
    for k in range(resolution):
        s = 2.0 * np.pi * k / resolution
        if cone == "I":
            d = 1.0 + 0.5 * np.cos(s)
            c = 0.5 + 0.5 * np.sin(s)
            b = 2.0 - d
        else:
            c = 1.0 + 0.5 * np.cos(s)
            d = 0.5 + 0.5 * np.sin(s)
            b = 1.0 - d
        base = np.array([b, c, d])
        for u in fractions:
            rows.append(vertex + u * (base - vertex))
    return np.array(rows)


def ref_twirl(op):
    out = np.zeros_like(op)
    for v in maps._weyl_vectors(4):
        weight = float((v.conj() @ op @ v).real)
        out += weight * np.outer(v, v.conj())
    return out


def assert_bitwise(actual, expected):
    actual = np.asarray(actual)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def family_sample():
    rng = np.random.default_rng(71)
    out = [abcd_from_euler(*rng.uniform(0, 2 * np.pi, 3), parity=parity)
           for parity in ("proper", "improper") for _ in range(6)]
    # signed zeros must come out unsigned, as the matrix-unit sums give them
    out += [WitnessParams(1.0, 1.0, 1.0, 0.0), WitnessParams(1.2, -0.0, 1.8, -0.0)]
    return out


def test_witness_from_params_matches_matrix_units():
    for p in family_sample():
        assert_bitwise(witness_from_params(p).operator, ref_witness(p.as_array()))


@pytest.mark.parametrize("parity", ["proper", "improper"])
def test_build_witness_matches_matrix_units(parity):
    rng = np.random.default_rng(72)
    for _ in range(8):
        emb = embedding_from_euler(*rng.uniform(0, 2 * np.pi, 3), parity=parity)
        assert_bitwise(build_witness(emb).operator, ref_build_witness(emb))


@pytest.mark.parametrize("epsilon", [2.0**-20, 1.0, 2.0**20])
def test_probe_matches_matrix_units(epsilon):
    assert_bitwise(probe_state(epsilon).state, ref_probe(epsilon))


def test_decomposition_parts_match_matrix_units_on_bd_lines():
    for cone in ("I", "II"):
        for p in bd_curve(cone):
            gram, p_op, q_op, q_gamma = _decomposition_parts(p.a, p.b, p.c)
            ref_p, ref_q = ref_decomposition_parts(p.a, p.b, p.c)
            assert_bitwise(p_op, ref_p)
            assert_bitwise(q_op, ref_q)
            # the reconstruction error subtracts Q^Gamma as returned
            assert_bitwise(q_gamma, linalg.partial_transpose(ref_q, 4, 4))
            ii = np.arange(0, 16, 5)
            assert np.array_equal(gram, p_op[np.ix_(ii, ii)].real)


def test_pair_terms_and_sigma_diag_match_matrix_units():
    for p in family_sample():
        res = spa.spa_decompose(p)
        assert [ij for ij, _ in res.sigma_pairs] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for (i, j), sigma in res.sigma_pairs:
            assert_bitwise(sigma, ref_pair_term(i, j))
        assert_bitwise(res.sigma_diag, ref_sigma_diag(res.slacks))


def test_twirl_matches_projector_loop():
    rng = np.random.default_rng(73)
    for parity in ("proper", "improper"):
        w = build_witness(embedding_from_euler(*rng.uniform(0, 2 * np.pi, 3), parity=parity))
        np.testing.assert_allclose(twirl(w).operator, ref_twirl(w.operator), rtol=0, atol=1e-14)


@pytest.mark.parametrize("parity", ["proper", "improper"])
def test_abcd_from_euler_matches_two_branch_forms(parity):
    rng = np.random.default_rng(74)
    angles = [tuple(rng.uniform(-4 * np.pi, 4 * np.pi, 3)) for _ in range(500)]
    angles += [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0), (np.pi, -0.0, np.pi)]
    for alpha, beta, gamma in angles:
        params = abcd_from_euler(alpha, beta, gamma, parity=parity)
        assert_bitwise(params.as_array(), ref_abcd_from_euler(alpha, beta, gamma, parity))


@pytest.mark.parametrize("resolution", [2, 3, 64])
def test_sample_cloud_matches_row_loop(resolution):
    for cone in ("I", "II"):
        assert_bitwise(sample_cloud(cone, resolution), ref_sample_cloud(cone, resolution))


def test_cached_constants_are_read_only():
    res = spa.spa_decompose(WitnessParams(1.0, 1.0, 1.0, 0.0))
    for _, sigma in res.sigma_pairs:
        with pytest.raises(ValueError):
            sigma[0, 0] = 5.0
    with pytest.raises(ValueError):
        maps._weyl_vectors(4)[0, 0] = 5.0
    with pytest.raises(ValueError):
        maps._diag_table(4)[0, 0] = 5.0
    for point in (AXIS_POINT, VERTEX_ONE, VERTEX_TWO, AXIS_DIRECTION):
        with pytest.raises(ValueError):
            point[0] = 5.0


def test_spa_results_do_not_share_mutable_state():
    p = WitnessParams(1.0, 1.0, 1.0, 0.0)
    first = spa.spa_decompose(p)
    first.sigma_diag[:] = 99.0
    first.mixed_operator[:] = 99.0
    second = spa.spa_decompose(p)
    assert_bitwise(second.sigma_diag, ref_sigma_diag(second.slacks))
    assert second.reconstruction_error < 1e-12
    assert second.pairs_separable


# The earlier forms of the rewritten assembly steps, kept as references.


def ref_real_embedding(a):
    lower = np.tril(a, -1)
    h = lower + lower.conj().T + np.diag(a.diagonal().real)
    x, y = h.real, h.imag
    return np.block([[x, -y], [y, x]])


def ref_ii_operator(diagonal, block):
    n = len(block)
    op = np.diag(np.asarray(diagonal, dtype=complex) + 0.0)
    ii = np.arange(0, n * n, n + 1)
    op[np.ix_(ii, ii)] = np.asarray(block) + 0.0
    return op


def ref_params_from_witness(op):
    diag = np.array([[op[4 * i + j, 4 * i + j].real for j in range(4)] for i in range(4)])
    return np.array([np.mean([diag[i, (i + s) % 4] for i in range(4)]) for s in range(4)])


def with_signed_zeros(rng, shape, dtype):
    m = rng.standard_normal(shape)
    if dtype is complex:
        m = m + 1j * rng.standard_normal(shape)
    zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)])
    if dtype is float:
        zeros = zeros.real
    mask = rng.random(shape) < 0.3
    m[mask] = rng.choice(zeros, size=int(mask.sum()))
    return m


def former_real_embedding(a):
    """The embedding as seven array operations, before the gather; its upper triangle was unset."""
    n = a.shape[0]
    e = np.full((2 * n, 2 * n), np.nan)
    e[:n, :n] = e[n:, n:] = a.real + 0.0
    y = np.zeros((n, n))
    np.add(a.imag, 0.0, out=y, where=np.tri(n, k=-1, dtype=bool))
    np.subtract(y, y.T, out=e[n:, :n])
    return e


def test_real_embedding_gather_matches_the_former_operations():
    # the lower triangle, all that Cholesky and the constant read, is the
    # former one bit for bit, signed zeros included; the whole is symmetric
    rng = np.random.default_rng(93)
    count = 0
    for n in range(1, 17):
        for _ in range(63):
            kind = count % 3
            if kind == 0:
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            elif kind == 1:
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m[rng.random((n, n)) < 0.7] = 0.0
            else:
                m = with_signed_zeros(rng, (n, n), complex if count % 2 else float)
            if count % 5 == 0:
                m = m.T  # not C-contiguous
            e = linalg._real_embedding(m)
            assert_bitwise(np.tril(e), np.tril(former_real_embedding(m)))
            assert e.tobytes() == e.T.tobytes()
            count += 1
    assert count >= 1000


@pytest.mark.parametrize("dtype", [float, complex])
def test_real_embedding_matches_block_form(dtype):
    rng = np.random.default_rng(75)
    for n in range(1, 17):
        for _ in range(4):
            m = with_signed_zeros(rng, (n, n), dtype)
            # psd_proved embeds the scaled complex copy of m
            a, _ = linalg._scaled_to_unit(linalg._require_square_finite(m))
            # the helper writes only the lower triangle that Cholesky reads
            for h in (a, a + a.conj().T):
                assert_bitwise(np.tril(linalg._real_embedding(h)), np.tril(ref_real_embedding(h)))


def test_ii_operator_matches_diag_and_ix_on_every_built_operator(monkeypatch):
    real = maps._ii_operator
    calls = []

    def checked(diagonal, block, caller="test"):
        op = real(diagonal, block)
        assert_bitwise(op, ref_ii_operator(diagonal, block))
        # and _ii_parts reads back parts that write the same operator
        table, parts_block = maps._ii_parts(op, len(block))
        assert_bitwise(real(table.ravel(), parts_block), op)
        calls.append((caller, len(block)))
        return op

    for module in (maps, family, certify, spa):
        name = module.__name__
        monkeypatch.setattr(module, "_ii_operator", lambda d, b, name=name: checked(d, b, name))
    for p in family_sample():
        witness_from_params(p)
        spa.spa_decompose(p)
    for parity in ("proper", "improper"):
        build_witness(embedding_from_euler(0.4, -1.3, 2.9, parity=parity))
    for n in range(2, 6):
        maps.max_entangled_projector(n)
    for epsilon in (2.0**-20, 0.3, 1.0, 2.0**20):
        probe_state(epsilon)
    for cone in ("I", "II"):
        for p in bd_curve(cone):
            _decomposition_parts(p.a, p.b, p.c)
    _decomposition_parts(1.2, -0.0, 1.8)
    for i, j in combinations(range(4), 2):
        spa._pair_term(i, j)
    assert {caller for caller, _ in calls} == {m.__name__ for m in (maps, family, certify, spa)}
    assert {n for _, n in calls} == {2, 3, 4, 5}
    # blocks and diagonals with signed zeros, real and complex, on other sizes too
    rng = np.random.default_rng(76)
    for n in range(1, 7):
        for dtype in (float, complex):
            diagonal = with_signed_zeros(rng, n * n, dtype)
            block = with_signed_zeros(rng, (n, n), dtype)
            checked(diagonal, block)
            checked(list(diagonal), block.tolist())


def test_params_from_witness_matches_list_comprehension():
    rng = np.random.default_rng(77)
    ops = []
    for parity in ("proper", "improper"):
        for _ in range(100):
            emb = embedding_from_euler(*rng.uniform(0, 2 * np.pi, 3), parity=parity)
            ops.append(twirl(build_witness(emb)).operator)
    ops += [witness_from_params(p).operator for p in family_sample()]
    ops += [witness_from_params(sp.params).operator for sp in special_points()]
    # a = 0 puts zeros on the |ii> diagonal; sign some of them
    for signs in ((-0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, -0.0, 0.0)):
        op = witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0)).operator.copy()
        op[np.arange(0, 16, 5), np.arange(0, 16, 5)] = [complex(z, z) for z in signs]
        ops.append(op)
    for op in ops:
        params = params_from_witness(maps.Witness(n=4, operator=op))
        assert_bitwise(params.as_array(), ref_params_from_witness(op))


def test_pair_sum_matches_summed_pair_terms():
    pairs, pair_sum, _ = spa._pair_terms()
    assert_bitwise(pair_sum, sum(sigma for _, sigma in pairs))
    assert_bitwise(pair_sum, sum(ref_pair_term(i, j) for i, j in combinations(range(4), 2)))
    with pytest.raises(ValueError):
        pair_sum[0, 0] = 5.0
    for p in family_sample():
        res = spa.spa_decompose(p)
        total = sum(sigma for _, sigma in res.sigma_pairs) + res.sigma_diag
        error = float(np.max(np.abs(res.mixed_operator - res.normalization * total)))
        assert res.reconstruction_error == error


def accuracy_sample():
    sample = [sp.params for sp in special_points()]
    for cone in ("I", "II"):
        sample += bd_curve(cone)
        sample += [WitnessParams(3.0 - b - c - d, b, c, d) for b, c, d in sample_cloud(cone, 16)]
    return sample


def test_critical_p_agrees_with_closed_form_on_cones_and_special_points():
    sample = accuracy_sample()
    assert len(sample) > 2 * 16 * 16
    for p in sample:
        w = witness_from_params(p)
        assert abs(spa.critical_p(w) - spa.critical_p_from_a(p.a)) <= 1e-12


def ref_require_psd_block(epsilon, w, w_t):
    tol = Fraction(certify.EVIDENCE_TOL)
    if (Fraction(w) + tol) * (Fraction(w_t) + tol) < 1:
        raise ValueError(
            f"partial transpose failed positivity at eps={epsilon}: "
            f"block [[{w!r}, 1], [1, {w_t!r}]]"
        )


def ref_twirl_weights(op):
    vecs = maps._weyl_vectors(4)
    weights = np.einsum("ka,ab,kb->k", vecs.conj(), op, vecs).real
    return (vecs.T * weights) @ vecs.conj()


def ref_euler_rotation(alpha, beta, gamma):
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    sg, cg = np.sin(gamma), np.cos(gamma)
    return np.array(
        [
            [ca * cg - cb * sa * sg, cg * sa + ca * cb * sg, sb * sg],
            [-cb * cg * sa - ca * sg, ca * cb * cg - sa * sg, cg * sb],
            [sa * sb, -ca * sb, cb],
        ]
    )


def ref_geometry_rows(cones, resolution):
    rows = []
    for cone in cones:
        for b, c, d in sample_cloud(cone, resolution):
            rows.append((float(b), float(c), float(d), cone))
    for cone in cones:
        for p in bd_curve(cone):
            rows.append((p.b, p.c, p.d, f"bd-{cone}"))
    for sp in special_points():
        if sp.ellipse in cones:
            rows.append((sp.params.b, sp.params.c, sp.params.d, f"special-{sp.label}"))
    return rows


def outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


PROBE_EPSILONS = [2.0**k for k in range(-60, 61)] + [49.0, 1 / 49.0, 3.0, 1 / 3.0,
                                                     math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]


def probe_weight_pairs():
    # the blocks probe_state checks, failing blocks, and pairs on each side of
    # (w + tol)(w' + tol) = 1
    pairs = [(eps, (eps, 1.0 / eps)) for eps in PROBE_EPSILONS]
    pairs += [(eps, (1.0, 1.0)) for eps in PROBE_EPSILONS]
    pairs += [(0.5, (0.5, 1.9999)), (2.0, (2.0, 0.4)), (1.0, (1e-3, 1e-3)), (1.0, (0.0, 0.0))]
    rng = np.random.default_rng(78)
    for w in rng.uniform(0.01, 100.0, 200).tolist():
        edge = 1.0 / (w + certify.EVIDENCE_TOL) - certify.EVIDENCE_TOL
        for steps in range(-3, 4):
            w_t = edge
            for _ in range(abs(steps)):
                w_t = math.nextafter(w_t, math.copysign(math.inf, steps))
            pairs.append((w, (w, w_t)))
    return pairs


def test_probe_block_check_matches_fraction_form():
    verdicts = []
    for eps, (w, w_t) in probe_weight_pairs():
        got = outcome(certify._require_psd_block, eps, w, w_t)
        assert got == outcome(ref_require_psd_block, eps, w, w_t)
        verdicts.append(got is None)
    assert all(verdicts[: 2 * len(PROBE_EPSILONS)]), "a probe_state block was rejected"
    assert verdicts.count(False) > 200 and verdicts.count(True) > 600
    assert outcome(certify._require_psd_block, 0.5, 0.5, 1.9999) == (
        "partial transpose failed positivity at eps=0.5: block [[0.5, 1], [1, 1.9999]]"
    )



def ref_probe_checks(epsilon):
    """The earlier probe check: both block shifts, 1 and 2."""
    weights = (1.0, float(epsilon), 1.0, 1.0 / float(epsilon))
    for k in (1, 2):
        ref_require_psd_block(epsilon, weights[k], weights[-k])


@pytest.mark.parametrize("evidence_tol", [certify.EVIDENCE_TOL, 0.0])
def test_probe_state_verdicts_match_both_block_shifts(monkeypatch, evidence_tol):
    # at tol 0 the float weights 49 and 1/49, 3 and 1/3 fail, so both
    # verdicts and the failure message are compared
    monkeypatch.setattr(certify, "EVIDENCE_TOL", evidence_tol)
    verdicts = []
    for eps in PROBE_EPSILONS:
        got = outcome(probe_state, eps)
        assert got == outcome(ref_probe_checks, eps)
        verdicts.append(got is None)
    assert all(verdicts) == (evidence_tol > 0)
    assert any(verdicts)

def test_twirl_matches_einsum_weights():
    rng = np.random.default_rng(79)
    ops = [witness_from_params(sp.params).operator for sp in special_points()]
    for parity in ("proper", "improper"):
        for _ in range(200):
            emb = embedding_from_euler(*rng.uniform(0, 2 * np.pi, 3), parity=parity)
            ops.append(build_witness(emb).operator)
    for op in ops:
        gap = np.max(np.abs(twirl(Witness(n=4, operator=op)).operator - ref_twirl_weights(op)))
        assert gap <= 1e-15


def test_euler_rotation_matches_numpy_scalar_form():
    rng = np.random.default_rng(80)
    angles = [tuple(rng.uniform(-4 * np.pi, 4 * np.pi, 3)) for _ in range(500)]
    angles += [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0), (np.pi, -0.0, np.pi)]
    for alpha, beta, gamma in angles:
        assert_bitwise(euler_rotation(alpha, beta, gamma), ref_euler_rotation(alpha, beta, gamma))


@pytest.mark.parametrize("resolution", [2, 3, 16, 64])
def test_geometry_rows_match_per_coordinate_floats(resolution):
    # segments are (N, 3) float64 arrays; the writers format their tolist()
    for cones in (("I", "II"), ("I",), ("II",)):
        segments = cli._geometry_rows(cones, resolution)
        assert all(seg.dtype == np.float64 and seg.ndim == 2 and seg.shape[1] == 3 for _, seg in segments)
        rows = [(b, c, d, tag) for tag, seg in segments for b, c, d in seg.tolist()]
        expected = ref_geometry_rows(cones, resolution)
        assert rows == expected
        assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in expected]
        assert all(type(x) is float for row in rows for x in row[:3])
