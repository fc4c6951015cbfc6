import copy
import dataclasses
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones import maps
from ewcones.certify import block_positivity_min, detect
from ewcones.family import WitnessParams, abcd_from_euler, witness_from_params
from ewcones.gellmann import build_basis
from ewcones.maps import (
    OrthogonalEmbedding,
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
from ewcones.spa import critical_p


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


def test_overflowing_gram_is_not_orthogonal_without_a_warning():
    # B^T B overflowed with a RuntimeWarning (an error here) before the message
    block = np.eye(3)
    block[0, 1] = 1e300
    with pytest.raises(ValueError, match=r"^block is not orthogonal: max \|B\^T B - I\| = inf$"):
        embedding_from_block(block)


def test_orthogonal_embedding_is_checked_when_built():
    # this one used to be accepted: its det is 8, and its twirled witness read (2.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match=r"^block is not orthogonal: max \|B\^T B - I\| = 3\.000e\+00$"):
        OrthogonalEmbedding(n=4, block=2 * np.eye(3), parity="improper")
    r = euler_rotation(0.3, 0.5, 0.7)
    nan = r.copy()
    nan[1, 2] = np.nan
    for n, block, parity, message in (
        (4, r, "improper", "^parity is 'improper', but the block's determinant makes it 'proper'$"),
        (4, -r, "proper", "^parity is 'proper', but the block's determinant makes it 'improper'$"),
        (5, r, "proper", "^a block of order 3 needs n = 4, got n = 5$"),
        (True, np.eye(1), "proper", "^n must be an integer, got True$"),
        (4.0, r, "proper", "^n must be an integer, got 4.0$"),
        (4, r[:2], "proper", r"^expected a non-empty square block, got shape \(2, 3\)$"),
        (1, np.zeros((0, 0)), "proper", r"^expected a non-empty square block, got shape \(0, 0\)$"),
        (4, nan, "proper", "^block entries must be finite$"),
        (4, r, "Proper", "^parity must be 'proper' or 'improper', got 'Proper'$"),
    ):
        with pytest.raises(ValueError, match=message):
            OrthogonalEmbedding(n=n, block=block, parity=parity)
    emb = OrthogonalEmbedding(n=np.int64(4), block=r.tolist(), parity="proper")
    assert type(emb.n) is int and emb.n == 4
    assert emb.block.dtype == float and not emb.block.flags.writeable
    assert emb.block.tobytes() == r.tobytes()
    given = r.copy()
    kept = OrthogonalEmbedding(n=4, block=given, parity="proper")
    given[0, 0] = 5.0
    assert not np.shares_memory(kept.block, given) and kept.block.tobytes() == r.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        kept.block[0, 0] = 5.0
    with pytest.raises(ValueError, match="^parity is 'improper'"):
        dataclasses.replace(kept, parity="improper")
    for back in (copy.copy(kept), copy.deepcopy(kept), pickle.loads(pickle.dumps(kept))):
        assert type(back.n) is int and back.parity == "proper"
        assert not back.block.flags.writeable and back.block.tobytes() == r.tobytes()
    for parity in ("proper", "improper"):
        assert embedding_from_euler(0.3, 0.5, 0.7, parity).parity == parity


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
    # every input, a complex ndarray included, becomes the witness's own
    # read-only complex array, leaving the caller's object as it was
    op = max_entangled_projector(2)
    real = np.eye(4)
    for given in (op, real, real.tolist()):
        stored = maps.Witness(n=2, operator=given).operator
        assert stored.dtype == complex and not stored.flags.writeable
        assert not np.shares_memory(stored, given)
        assert stored.tobytes() == np.asarray(given, dtype=complex).tobytes()
    assert op.flags.writeable and real.flags.writeable and real.dtype == float
    not_numbers = "^witness operator must be an array of numbers: "
    # n = -1 used to pass the n^2 shape test with a 1 x 1 operator
    for n, given, message in (
        (-1, [[0.7]], "^n must be at least 1, got -1$"),
        (0, np.zeros((0, 0)), "^n must be at least 1, got 0$"),
        (2.0, real, "^n must be an integer, got 2.0$"),
        # numpy's own messages named neither the witness nor its operator
        (2, [[1, 2], [3]], not_numbers),
        (1, "abc", not_numbers),
        (2, [[1, 0, 0, 0], [0, "x", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], not_numbers),
        (2, [[1, 0, 0, 0], [0, {}, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], not_numbers),
    ):
        with pytest.raises(ValueError, match=message):
            maps.Witness(n=n, operator=given)


def test_witness_keeps_n_as_a_plain_int():
    # True and np.int64(4) used to be stored as given
    w = maps.Witness(n=np.int64(4), operator=np.eye(16))
    assert type(w.n) is int and w.n == 4
    for back in (dataclasses.replace(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(back.n) is int and back.n == 4
    for bad, shown in ((True, "True"), (False, "False"), (np.True_, "np.True_")):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {shown}$"):
            maps.Witness(n=bad, operator=[[1.0]])


def construction_routes():
    """(route, witness, inputs whose memory the witness must not share)."""
    member = abcd_from_euler(0.3, 0.9, 2.1)
    op = member.witness.operator.copy()
    real = op.real.copy()
    w = maps.Witness(n=4, operator=op)
    built = build_witness(embedding_from_euler(1.2, 2.5, 0.4))
    yield "complex ndarray", w, [op]
    yield "real ndarray", maps.Witness(n=4, operator=real), [real]
    yield "nested list", maps.Witness(n=4, operator=op.tolist()), []
    yield "build_witness", built, []
    yield "twirl", twirl(built), [built.operator]
    yield "choi_witness", choi_witness(map_from_embedding(embedding_from_euler(1.2, 2.5, 0.4))), []
    yield "params.witness", member.witness, []
    yield "witness_from_params", witness_from_params(member), []
    yield "dataclasses.replace", dataclasses.replace(w), [w.operator, op]
    yield "copy.copy", copy.copy(w), [w.operator, op]
    yield "copy.deepcopy", copy.deepcopy(w), [w.operator, op]
    yield "pickle", pickle.loads(pickle.dumps(w)), [w.operator, op]


def test_every_construction_route_gives_an_own_read_only_complex_operator():
    for route, w, inputs in construction_routes():
        stored = w.operator
        assert stored.dtype == complex and stored.shape == (16, 16), route
        assert not stored.flags.writeable and stored.flags.owndata, route
        for given in inputs:
            assert not np.shares_memory(stored, given), route
    # the copies are rebuilt through the constructor, so they carry the same values
    w = maps.Witness(n=4, operator=abcd_from_euler(0.3, 0.9, 2.1).witness.operator)
    for back in (dataclasses.replace(w), copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(back) is maps.Witness and back.n == 4
        assert back.operator.tobytes() == w.operator.tobytes()


def test_writes_into_the_witness_operator_raise():
    # the member's witness that `witness_from_params` hands out used to be writable
    for route, w, _ in construction_routes():
        kept = w.operator.tobytes()
        for index, value in (((0, 0), np.nan), ((0, 5), 3.0)):
            with pytest.raises(ValueError, match="read-only"):
                w.operator[index] = value
        assert w.operator.tobytes() == kept, route


@pytest.mark.parametrize("index, value", [((0, 0), np.nan), ((0, 5), 3.0)])
def test_writes_into_the_callers_array_do_not_reach_the_witness(index, value):
    # a complex ndarray used to be kept as given, so a NaN made detect return
    # nan and LAPACK fail, and a one-sided 3.0 read as a witness with p* = 0.727
    op = WitnessParams(1.0, 1.0, 1.0, 0.0).witness.operator.copy()
    w = maps.Witness(n=4, operator=op)
    kept = w.operator.tobytes()
    rho = np.eye(16) / 16

    def values():
        return detect(w, rho), critical_p(w), block_positivity_min(w)

    before = values()
    op[index] = value
    assert w.operator.tobytes() == kept
    assert values() == before
