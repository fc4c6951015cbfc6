import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones import maps
from ewcones.gellmann import build_basis
from ewcones.maps import (
    build_witness,
    choi_witness,
    embedding_from_block,
    embedding_from_euler,
    euler_rotation,
    map_from_embedding,
    max_entangled_projector,
    phi_matrix,
    twirl,
)


def random_angles(rng):
    return rng.uniform(0.0, 2.0 * np.pi, size=3)


def test_euler_rotation_basics():
    assert_allclose(euler_rotation(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)
    assert_allclose(euler_rotation(0.0, np.pi, 0.0), np.diag([1.0, -1.0, -1.0]), atol=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(20):
        r = euler_rotation(*random_angles(rng))
        assert_allclose(r @ r.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(r) == pytest.approx(1.0)


@pytest.mark.parametrize("angles", [(np.inf, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, -np.inf)])
def test_euler_rotation_rejects_non_finite_angles(angles):
    # math.sin would return NaN for a NaN angle and raise a bare "math domain error" for inf
    with pytest.raises(ValueError, match="^Euler angles must be finite"):
        euler_rotation(*angles)


def test_embedding_parity_detection():
    rng = np.random.default_rng(12)
    r = euler_rotation(*random_angles(rng))
    emb = embedding_from_block(r)
    assert emb.parity == "proper"
    assert embedding_from_block(-r).parity == "improper"
    with pytest.raises(ValueError):
        embedding_from_block(np.ones((3, 3)))


def test_embedding_from_block_infers_n_and_rejects_bad_blocks():
    assert embedding_from_block(np.eye(2)).n == 3
    assert embedding_from_block(-np.eye(3)).n == 4
    for bad in (np.eye(3)[:2], np.zeros((0, 0)), np.ones(3)):
        with pytest.raises(ValueError, match="square"):
            embedding_from_block(bad)
    for value in (np.nan, np.inf):
        block = np.eye(3)
        block[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            embedding_from_block(block)
    with pytest.raises(TypeError):
        embedding_from_block(np.eye(2), n=3)


def test_embedding_rotation_shape():
    emb = embedding_from_euler(0.3, 0.7, 1.1)
    full = emb.rotation()
    assert full.shape == (15, 15)
    assert_allclose(full[:3, :3], emb.block)
    assert_allclose(full[3:, 3:], -np.eye(12), atol=1e-15)
    assert_allclose(full @ full.T, np.eye(15), atol=1e-13)


def test_embedding_from_euler_improper_negates():
    emb = embedding_from_euler(0.3, 0.7, 1.1, parity="improper")
    assert emb.parity == "improper"
    assert_allclose(emb.block, -euler_rotation(0.3, 0.7, 1.1))


def test_embedding_from_euler_rejects_unknown_parity():
    with pytest.raises(ValueError, match="parity must be 'proper' or 'improper', got 'mirror'"):
        embedding_from_euler(0.3, 0.7, 1.1, parity="mirror")


def test_map_is_unital_and_trace_preserving():
    rng = np.random.default_rng(13)
    kmap = map_from_embedding(embedding_from_euler(*random_angles(rng)))
    assert_allclose(kmap.apply(np.eye(4)), np.eye(4), atol=1e-13)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.trace(kmap.apply(x)) == pytest.approx(np.trace(x), abs=1e-12)


def test_map_positive_on_projectors():
    # positivity, sampled: images of ket projectors stay PSD
    rng = np.random.default_rng(14)
    for parity in ("proper", "improper"):
        kmap = map_from_embedding(embedding_from_euler(*random_angles(rng), parity=parity))
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            img = kmap.apply(np.outer(v, v.conj()))
            assert np.linalg.eigvalsh(img)[0] >= -1e-10


def test_dual_is_trace_pairing_adjoint():
    rng = np.random.default_rng(15)
    kmap = map_from_embedding(embedding_from_euler(*random_angles(rng)))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = np.trace(kmap.apply(x).conj().T @ y)
    rhs = np.trace(x.conj().T @ kmap.apply_dual(y))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phi_matrix_doubly_stochastic():
    rng = np.random.default_rng(16)
    for parity in ("proper", "improper"):
        emb = embedding_from_euler(*random_angles(rng), parity=parity)
        phi = phi_matrix(emb)
        assert_allclose(phi.sum(axis=0), np.ones(4), atol=1e-13)
        assert_allclose(phi.sum(axis=1), np.ones(4), atol=1e-13)
        assert phi.min() >= -1e-12


def test_phi_matrix_matches_map_on_ket_projectors():
    rng = np.random.default_rng(17)
    emb = embedding_from_euler(*random_angles(rng))
    kmap = map_from_embedding(emb)
    phi = phi_matrix(emb)
    for i in range(4):
        proj = np.zeros((4, 4))
        proj[i, i] = 1.0
        assert_allclose(np.diag(kmap.apply(proj)).real, phi[i, :], atol=1e-13)


def test_witness_routes_agree():
    rng = np.random.default_rng(18)
    for _ in range(10):
        for parity in ("proper", "improper"):
            emb = embedding_from_euler(*random_angles(rng), parity=parity)
            w_phi = build_witness(emb)
            w_choi = choi_witness(map_from_embedding(emb))
            assert np.max(np.abs(w_phi.operator - w_choi.operator)) < 1e-12


def test_witness_structure():
    emb = embedding_from_euler(0.4, 1.2, 2.5)
    w = build_witness(emb)
    assert w.trace() == pytest.approx(12.0)
    assert_allclose(w.operator, w.operator.conj().T, atol=1e-13)
    # off-diagonal block (0, 1) is -|0><1|
    block = w.operator[0:4, 4:8]
    expected = np.zeros((4, 4))
    expected[0, 1] = -1.0
    assert_allclose(block, expected, atol=1e-15)


def test_weyl_set_properties():
    vecs = maps._weyl_vectors(4)
    assert vecs.shape == (16, 16)
    gram = vecs.conj() @ vecs.T
    assert_allclose(gram, np.eye(16), atol=1e-13)
    # vector (0, 0) is the uniform maximally entangled one
    assert_allclose(np.outer(vecs[0], vecs[0].conj()), max_entangled_projector(4), atol=1e-13)


def test_twirl_is_projection():
    rng = np.random.default_rng(19)
    emb = embedding_from_euler(*random_angles(rng))
    w = build_witness(emb)
    t1 = twirl(w)
    t2 = twirl(t1)
    assert np.max(np.abs(t1.operator - t2.operator)) < 1e-12
    assert np.trace(t1.operator).real == pytest.approx(12.0)
    with pytest.raises(TypeError):
        twirl(w, maps._weyl_vectors(4))
    # used to fail in twirl's matmul, with numpy's message
    with pytest.raises(ValueError, match=r"^witness operator must have shape \(16, 16\) for n = 4, got \(9, 9\)$"):
        twirl(maps.Witness(n=4, operator=np.eye(9)))


def test_max_entangled_projector():
    p = max_entangled_projector(4)
    assert np.trace(p).real == pytest.approx(1.0)
    assert_allclose(p @ p, p, atol=1e-14)
    assert p[0, 5] == pytest.approx(0.25)


def test_witness_converts_its_operator_once():
    # a complex ndarray is kept as given; anything else becomes a fresh,
    # read-only complex array, leaving the caller's object as it was
    op = max_entangled_projector(2)
    assert maps.Witness(n=2, operator=op).operator is op and op.flags.writeable
    real = np.eye(4)
    for given in (real, real.tolist()):
        stored = maps.Witness(n=2, operator=given).operator
        assert stored.dtype == complex and not stored.flags.writeable
        assert stored.tobytes() == real.astype(complex).tobytes()
    assert real.flags.writeable and real.dtype == float
    # n = -1 used to pass the n^2 shape test with a 1 x 1 operator
    for n, given, message in (
        (-1, [[0.7]], "^n must be at least 1, got -1$"),
        (0, np.zeros((0, 0)), "^n must be at least 1, got 0$"),
        (2.0, real, "^n must be an integer, got 2.0$"),
    ):
        with pytest.raises(ValueError, match=message):
            maps.Witness(n=n, operator=given)
