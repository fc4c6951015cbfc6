"""Every family operator against its matrix-unit construction.

The package assembles each operator from its main diagonal and its block on
span{|ii>}. The reference implementations below build the same operators
the long way, as sums of Kronecker products of matrix units, and the
assembled arrays must match them bit for bit. The same holds for the closed
Euler forms, written out once per parity, and for the sample clouds, built
row by row.
"""
import numpy as np
import pytest

from ewcones import maps, spa
from ewcones.certify import _decomposition_parts, probe_state
from ewcones.cones import (
    AXIS_DIRECTION,
    AXIS_POINT,
    VERTEX_ONE,
    VERTEX_TWO,
    bd_curve,
    sample_cloud,
)
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.gellmann import build_basis, diag_expectations
from ewcones.maps import build_weyl_set, build_witness, embedding_from_euler, twirl


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
    for v in build_weyl_set(4).vectors:
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
            gram, p_op, q_op = _decomposition_parts(p.a, p.b, p.c)
            ref_p, ref_q = ref_decomposition_parts(p.a, p.b, p.c)
            assert_bitwise(p_op, ref_p)
            assert_bitwise(q_op, ref_q)
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
    weyl = maps._default_weyl_set(4)
    with pytest.raises(ValueError):
        weyl.vectors[0, 0] = 5.0
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
